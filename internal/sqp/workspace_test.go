package sqp

import (
	"math"
	"slices"
	"testing"

	"evclimate/internal/mat"
	"evclimate/internal/qp"
)

// hs71Problem is the bilinear HS71-style NLP used across the suite:
//
//	min x₁x₄(x₁+x₂+x₃) + x₃
//	s.t. x₁x₂x₃x₄ ≥ 25  (as 25 − Πx ≤ 0)
//	     x₁²+x₂²+x₃²+x₄² = 40, 1 ≤ x ≤ 5,
//
// with optimum ≈ (1, 4.743, 3.821, 1.379), f* ≈ 17.014.
func hs71Problem() *Problem {
	return &Problem{
		N: 4,
		Objective: func(x []float64) float64 {
			return x[0]*x[3]*(x[0]+x[1]+x[2]) + x[2]
		},
		Gradient: func(x, g []float64) {
			g[0] = x[3] * (2*x[0] + x[1] + x[2])
			g[1] = x[0] * x[3]
			g[2] = x[0]*x[3] + 1
			g[3] = x[0] * (x[0] + x[1] + x[2])
		},
		MEq: 1,
		Eq: func(x, out []float64) {
			out[0] = x[0]*x[0] + x[1]*x[1] + x[2]*x[2] + x[3]*x[3] - 40
		},
		EqJac: func(x []float64, jac *qp.StageMatrix) {
			for i := 0; i < 4; i++ {
				jac.Set(0, i, 2*x[i])
			}
		},
		MIneq: 9,
		Ineq: func(x, out []float64) {
			out[0] = 25 - x[0]*x[1]*x[2]*x[3]
			for i := 0; i < 4; i++ {
				out[1+i] = 1 - x[i]
				out[5+i] = x[i] - 5
			}
		},
		IneqJac: func(x []float64, jac *qp.StageMatrix) {
			jac.Set(0, 0, -x[1]*x[2]*x[3])
			jac.Set(0, 1, -x[0]*x[2]*x[3])
			jac.Set(0, 2, -x[0]*x[1]*x[3])
			jac.Set(0, 3, -x[0]*x[1]*x[2])
			for i := 0; i < 4; i++ {
				jac.Set(1+i, i, -1)
				jac.Set(5+i, i, 1)
			}
		},
	}
}

func bitsSame(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// A reused workspace must reproduce the allocating path bit for bit:
// same iterates, same iteration counts, same duals — across repeated
// solves through the same workspace.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	p := hs71Problem()
	x0 := []float64{1, 5, 5, 1}
	ref, err := Solve(p, x0, Options{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	for round := 0; round < 3; round++ {
		got, err := Solve(p, x0, Options{MaxIter: 200, Work: ws})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Status != ref.Status || got.Iterations != ref.Iterations || got.QPIterations != ref.QPIterations {
			t.Fatalf("round %d: (status, iters, qpIters) = (%v, %d, %d), want (%v, %d, %d)",
				round, got.Status, got.Iterations, got.QPIterations, ref.Status, ref.Iterations, ref.QPIterations)
		}
		if !bitsSame(got.X, ref.X) {
			t.Fatalf("round %d: X differs bitwise: %v vs %v", round, got.X, ref.X)
		}
		if !bitsSame(got.EqDuals, ref.EqDuals) || !bitsSame(got.InDuals, ref.InDuals) {
			t.Fatalf("round %d: duals differ bitwise", round)
		}
		if math.Float64bits(got.F) != math.Float64bits(ref.F) ||
			math.Float64bits(got.KKTResidual) != math.Float64bits(ref.KKTResidual) ||
			math.Float64bits(got.MaxViolation) != math.Float64bits(ref.MaxViolation) {
			t.Fatalf("round %d: scalar diagnostics differ bitwise", round)
		}
	}
}

// The workspace must re-size transparently when problem dimensions
// change between Solve calls.
func TestWorkspaceResizesAcrossShapes(t *testing.T) {
	ws := NewWorkspace()
	small := &Problem{
		N:         2,
		Objective: func(x []float64) float64 { return (x[0] - 1) * (x[0] - 1) * (x[1] + 2) * (x[1] + 2) },
		Gradient: func(x, g []float64) {
			g[0] = 2 * (x[0] - 1) * (x[1] + 2) * (x[1] + 2)
			g[1] = 2 * (x[0] - 1) * (x[0] - 1) * (x[1] + 2)
		},
	}
	if _, err := Solve(small, []float64{0, 0}, Options{Work: ws}); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(hs71Problem(), []float64{1, 5, 5, 1}, Options{MaxIter: 200, Work: ws})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.F-17.014) > 0.05 {
		t.Fatalf("after resize f = %v, want ≈ 17.014", res.F)
	}
}

// Result slices alias the workspace: the next Solve with the same
// workspace overwrites them. This pins the documented contract.
func TestWorkspaceResultAliasing(t *testing.T) {
	ws := NewWorkspace()
	p := hs71Problem()
	res1, err := Solve(p, []float64{1, 5, 5, 1}, Options{MaxIter: 200, Work: ws})
	if err != nil {
		t.Fatal(err)
	}
	x1 := slices.Clone(res1.X)
	if _, err := Solve(p, []float64{2, 4, 4, 2}, Options{MaxIter: 200, Work: ws}); err != nil {
		t.Fatal(err)
	}
	// res1.X may have been overwritten (different start → different
	// trajectory); the retained copy must still hold the first solution.
	if math.Abs(x1[1]-4.743) > 0.05 {
		t.Fatalf("retained copy corrupted: %v", x1)
	}
	_ = res1
}

// Warm SQP solves with analytic derivatives and a reused workspace are
// allocation-free (the evaluator, line search, BFGS update, and QP
// subproblems all run on the arena).
func TestWarmSolveNoAllocs(t *testing.T) {
	p := &Problem{
		N:         3,
		Objective: func(x []float64) float64 { return x[0]*x[0] + 2*x[1]*x[1] + 3*x[2]*x[2] + x[0]*x[1] },
		Gradient: func(x, g []float64) {
			g[0] = 2*x[0] + x[1]
			g[1] = 4*x[1] + x[0]
			g[2] = 6 * x[2]
		},
		MEq: 1,
		Eq:  func(x, out []float64) { out[0] = x[0] + x[1] + x[2] - 1 },
		EqJac: func(x []float64, jac *qp.StageMatrix) {
			jac.Set(0, 0, 1)
			jac.Set(0, 1, 1)
			jac.Set(0, 2, 1)
		},
		MIneq: 3,
		Ineq: func(x, out []float64) {
			out[0] = -x[0]
			out[1] = -x[1]
			out[2] = -x[2]
		},
		IneqJac: func(x []float64, jac *qp.StageMatrix) {
			jac.Set(0, 0, -1)
			jac.Set(1, 1, -1)
			jac.Set(2, 2, -1)
		},
	}
	x0 := []float64{0.3, 0.3, 0.4}
	ws := NewWorkspace()
	opt := Options{Work: ws}
	if _, err := Solve(p, x0, opt); err != nil { // size the workspace
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Solve(p, x0, opt); err != nil {
			t.Fatal(err)
		}
	})
	// The only remaining allocation is the evaluator header; everything
	// in the iteration loop runs on the workspace.
	if allocs > 2 {
		t.Fatalf("warm sqp.Solve allocates %v objects/op, want ≤ 2", allocs)
	}
}

// Warm solves with a declared stage structure — block-diagonal BFGS plus
// the QP's stage recursion over the declared stages — meet the same
// allocation contract as the one-stage NLP. This is the exact
// configuration the MPC runs every control step.
func TestWarmStructuredSolveNoAllocs(t *testing.T) {
	// Two stages of two variables; one equality and two bound rows per
	// stage, every row supported on its own stage (trivially in-band).
	p := &Problem{
		N: 4,
		Objective: func(x []float64) float64 {
			return x[0]*x[0] + 2*x[1]*x[1] + 3*x[2]*x[2] + x[3]*x[3] + x[0]*x[1] + 0.5*x[1]*x[2]
		},
		Gradient: func(x, g []float64) {
			g[0] = 2*x[0] + x[1]
			g[1] = 4*x[1] + x[0] + 0.5*x[2]
			g[2] = 6*x[2] + 0.5*x[1]
			g[3] = 2 * x[3]
		},
		MEq: 2,
		Eq: func(x, out []float64) {
			out[0] = x[0] + x[1] - 1
			out[1] = x[2] + x[3] - 1
		},
		EqJac: func(x []float64, jac *qp.StageMatrix) {
			jac.Set(0, 0, 1)
			jac.Set(0, 1, 1)
			jac.Set(1, 2, 1)
			jac.Set(1, 3, 1)
		},
		MIneq: 4,
		Ineq: func(x, out []float64) {
			out[0] = -x[0]
			out[1] = -x[1]
			out[2] = -x[2]
			out[3] = -x[3]
		},
		IneqJac: func(x []float64, jac *qp.StageMatrix) {
			jac.Set(0, 0, -1)
			jac.Set(1, 1, -1)
			jac.Set(2, 2, -1)
			jac.Set(3, 3, -1)
		},
		Stages: 2,
	}
	x0 := []float64{0.4, 0.6, 0.5, 0.5}
	ws := NewWorkspace()
	opt := Options{Work: ws}
	if res, err := Solve(p, x0, opt); err != nil { // size the workspace
		t.Fatal(err)
	} else if res.Status != Converged {
		t.Fatalf("structured warm-up did not converge: %v", res.Status)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Solve(p, x0, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm structured sqp.Solve allocates %v objects/op, want ≤ 2", allocs)
	}
}

// ShiftHessian slides BFGS block k+1 into block k and repeats the last
// one; the next Solve takes its first step with the shifted blocks, and
// the Solve after it takes its first step with the scaled-identity seed
// again. The problem is ½‖x‖² over three uncoupled stages, so one
// iteration's step is −B⁻¹x per stage block, up to the QP's 1e-9
// regularization.
func TestShiftHessian(t *testing.T) {
	const stages, nv = 3, 2
	p := &Problem{
		N:         stages * nv,
		Objective: func(x []float64) float64 { return 0.5 * mat.Dot(x, x) },
		Gradient:  func(x, g []float64) { copy(g, x) },
		Stages:    stages,
	}
	x0 := []float64{1, -2, 0.5, 3, -1, 2}
	ws := NewWorkspace()
	ws.ShiftHessian() // nothing solved yet: no blocks to carry
	seeded := func(label string, res *Result) {
		t.Helper()
		s := 1 + 3.0 // 1 + ‖∇f(x0)‖∞
		for i, v := range x0 {
			if want := v - v/s; math.Abs(res.X[i]-want) > 1e-8 {
				t.Fatalf("%s: x[%d] = %v, want %v from the seed %v·I", label, i, res.X[i], want, s)
			}
		}
	}
	opt := Options{MaxIter: 1, Work: ws}
	res, err := Solve(p, x0, opt)
	if err != nil {
		t.Fatal(err)
	}
	seeded("first solve", res)

	blocks := ws.Hessian(p)
	for k, blk := range blocks {
		d := float64(k + 2)
		blk.Set(0, 0, d)
		blk.Set(0, 1, 0.1*d)
		blk.Set(1, 0, 0.1*d)
		blk.Set(1, 1, 2*d)
	}
	ws.ShiftHessian()
	for k, blk := range blocks {
		d := float64(min(k+3, stages+1))
		if blk.At(0, 0) != d || blk.At(0, 1) != 0.1*d || blk.At(1, 0) != 0.1*d || blk.At(1, 1) != 2*d {
			t.Fatalf("block %d after the shift = %v, want block %d's", k, blk, min(k+1, stages-1))
		}
	}
	res, err = Solve(p, x0, opt)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < stages; k++ {
		d := float64(min(k+3, stages+1))
		a, b, c := d, 0.1*d, 2*d // [[a b] [b c]]⁻¹ = [[c −b] [−b a]]/det
		det := a*c - b*b
		u, v := x0[nv*k], x0[nv*k+1]
		want := []float64{u - (c*u-b*v)/det, v - (a*v-b*u)/det}
		for i, w := range want {
			if got := res.X[nv*k+i]; math.Abs(got-w) > 1e-8 {
				t.Fatalf("carried solve: x[%d] = %v, want %v from the shifted block", nv*k+i, got, w)
			}
		}
	}

	res, err = Solve(p, x0, opt)
	if err != nil {
		t.Fatal(err)
	}
	seeded("solve after the carried one", res)
}
