package qp

import (
	"math"
	"testing"

	"evclimate/internal/mat"
)

// FuzzSolve throws arbitrary 2-variable problems — including non-finite,
// indefinite, and inconsistent data — at the interior-point solver. The
// properties under test: Solve never panics, structurally invalid data is
// rejected as an error (never iterated on), and an Optimal status always
// carries a finite solution.
func FuzzSolve(f *testing.F) {
	// Seed corpus: a well-posed QP, an infeasible one, degenerate zeros,
	// non-finite poison in each block, and extreme scales.
	f.Add(2.0, 0.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, uint8(0))
	f.Add(2.0, 0.0, 2.0, 1.0, 1.0, 1.0, 1.0, -5.0, uint8(3))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(3))
	f.Add(math.NaN(), 0.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, uint8(0))
	f.Add(2.0, 0.0, 2.0, math.Inf(1), 1.0, 1.0, 1.0, 1.0, uint8(1))
	f.Add(2.0, 0.0, 2.0, 1.0, 1.0, math.NaN(), 1.0, 1.0, uint8(2))
	f.Add(-4.0, 1.0, -4.0, 1.0, -1.0, 0.5, -0.5, 2.0, uint8(3))
	f.Add(1e300, 0.0, 1e-300, 1e150, -1e150, 1e10, -1e10, 1e-10, uint8(3))

	f.Fuzz(func(t *testing.T, h00, h01, h11, c0, c1, a0, a1, b0 float64, flags uint8) {
		p := denseQP{
			H: mat.FromRows([][]float64{{h00, h01}, {h01, h11}}),
			C: []float64{c0, c1},
		}.problem()
		if flags&1 != 0 {
			p.Aeq = oneStage(mat.FromRows([][]float64{{a0, a1}}))
			p.Beq = []float64{b0}
		}
		if flags&2 != 0 {
			p.Ain = oneStage(mat.FromRows([][]float64{{a1, a0}}))
			p.Bin = []float64{b0}
		}

		hasNonFinite := false
		for _, v := range []float64{h00, h01, h11, c0, c1} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				hasNonFinite = true
			}
		}
		// Constraint data only invalidates the problem when a constraint
		// block actually uses it.
		if flags&3 != 0 {
			for _, v := range []float64{a0, a1, b0} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					hasNonFinite = true
				}
			}
		}

		res, err := Solve(p, Options{})
		if hasNonFinite && err == nil {
			t.Fatalf("non-finite problem accepted: %+v", p)
		}
		if err != nil {
			return
		}
		if res.Status == Optimal && !mat.AllFinite(res.X) {
			t.Fatalf("Optimal status with non-finite X = %v", res.X)
		}
	})
}
