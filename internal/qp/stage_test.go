package qp

import (
	"math"
	"math/rand"
	"testing"

	"evclimate/internal/mat"
)

// randStageQP builds a random stage-structured QP that satisfies the
// StageStructure contract: block-tridiagonal SPD-ish Hessian, stage
// constraint rows supported on stages k−1..k, and a feasible point with a
// tunable mix of tight and slack inequalities so active sets vary across
// seeds. ridge controls how close the stage Hessian blocks are to
// singular.
func randStageQP(rng *rand.Rand, nst int, ridge float64) (*Problem, *StageStructure) {
	nv, ne, ni := 1+rng.Intn(4), rng.Intn(2), 1+rng.Intn(3)
	// Stage 0 rows have no previous stage; keep the equality count below
	// the variable count so its rows stay independent.
	if ne >= nv {
		ne = nv - 1
	}
	ss := UniformStages(nst, nv, ne, ni)
	n, meq, min := nst*nv, nst*ne, nst*ni
	voff := make([]int, nst+1)
	for k := 0; k < nst; k++ {
		voff[k+1] = voff[k] + nv
	}

	h := mat.NewDense(n, n)
	for k := 0; k < nst; k++ {
		vo := voff[k]
		// SPD diagonal block GᵀG + ridge·I.
		g := make([]float64, nv*nv)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		for i := 0; i < nv; i++ {
			for j := 0; j <= i; j++ {
				var s float64
				for r := 0; r < nv; r++ {
					s += g[r*nv+i] * g[r*nv+j]
				}
				if i == j {
					s += ridge + 2 // diagonal dominance headroom for couplings
				}
				h.Set(vo+i, vo+j, s)
				h.Set(vo+j, vo+i, s)
			}
		}
		// Small symmetric coupling to the previous stage.
		if k > 0 {
			vop := voff[k-1]
			for i := 0; i < nv; i++ {
				for j := 0; j < nv; j++ {
					v := 0.2 * rng.NormFloat64()
					h.Set(vo+i, vop+j, v)
					h.Set(vop+j, vo+i, v)
				}
			}
		}
	}

	c := make([]float64, n)
	xf := make([]float64, n)
	for i := range c {
		c[i] = rng.NormFloat64()
		xf[i] = rng.NormFloat64()
	}

	var aeq *mat.Dense
	var beq []float64
	if meq > 0 {
		aeq = mat.NewDense(meq, n)
		beq = make([]float64, meq)
		r := 0
		for k := 0; k < nst; k++ {
			lo := voff[k]
			if k > 0 {
				lo = voff[k-1]
			}
			for e := 0; e < ne; e++ {
				var dot float64
				for j := lo; j < voff[k+1]; j++ {
					v := rng.NormFloat64()
					aeq.Set(r, j, v)
					dot += v * xf[j]
				}
				beq[r] = dot // xf is equality-feasible
				r++
			}
		}
	}

	ain := mat.NewDense(min, n)
	bin := make([]float64, min)
	r := 0
	for k := 0; k < nst; k++ {
		lo := voff[k]
		if k > 0 {
			lo = voff[k-1]
		}
		for e := 0; e < ni; e++ {
			var dot float64
			for j := lo; j < voff[k+1]; j++ {
				v := rng.NormFloat64()
				ain.Set(r, j, v)
				dot += v * xf[j]
			}
			// Half the rows are nearly tight at xf, half are slack, so the
			// optimizer sees varied active sets across seeds.
			slack := 2 * rng.Float64()
			if rng.Intn(2) == 0 {
				slack = 1e-3
			}
			bin[r] = dot + slack
			r++
		}
	}

	return &Problem{H: h, C: c, Aeq: aeq, Beq: beq, Ain: ain, Bin: bin, Stages: ss}, ss
}

// TestStageBackendMatchesDense is the equivalence property suite: over a
// spread of random stage-structured QPs (varying stage counts and sizes,
// active sets, and near-singular stage Hessians), the Riccati backend
// must reproduce the dense reference solution and multipliers to tight
// tolerance, because both paths solve the identical regularized Newton
// systems.
func TestStageBackendMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 60; trial++ {
		nst := 2 + rng.Intn(8)
		ridge := 1e-1
		if trial%3 == 0 {
			ridge = 1e-8 // near-singular stage Hessians
		}
		p, _ := randStageQP(rng, nst, ridge)

		dense, err := Solve(denseCopy(p), Options{})
		if err != nil {
			t.Fatalf("trial %d: dense solve failed: %v", trial, err)
		}
		str, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: structured solve failed: %v", trial, err)
		}
		if dense.Structured {
			t.Fatalf("trial %d: undeclared problem reported Structured", trial)
		}
		if !str.Structured {
			t.Fatalf("trial %d: conforming problem did not use structured backend", trial)
		}
		if dense.Status != Optimal || str.Status != Optimal {
			t.Fatalf("trial %d: status dense=%v structured=%v", trial, dense.Status, str.Status)
		}
		for i := range dense.X {
			if d := math.Abs(str.X[i] - dense.X[i]); d > 1e-6*(1+math.Abs(dense.X[i])) {
				t.Fatalf("trial %d: X[%d] = %.12g, dense %.12g (Δ %g)", trial, i, str.X[i], dense.X[i], d)
			}
		}
		for i := range dense.EqDuals {
			if d := math.Abs(str.EqDuals[i] - dense.EqDuals[i]); d > 1e-5*(1+math.Abs(dense.EqDuals[i])) {
				t.Fatalf("trial %d: EqDuals[%d] = %.12g, dense %.12g", trial, i, str.EqDuals[i], dense.EqDuals[i])
			}
		}
		for i := range dense.InDuals {
			if d := math.Abs(str.InDuals[i] - dense.InDuals[i]); d > 1e-5*(1+math.Abs(dense.InDuals[i])) {
				t.Fatalf("trial %d: InDuals[%d] = %.12g, dense %.12g", trial, i, str.InDuals[i], dense.InDuals[i])
			}
		}
		if d := math.Abs(str.Objective - dense.Objective); d > 1e-7*(1+math.Abs(dense.Objective)) {
			t.Fatalf("trial %d: objective %.15g vs dense %.15g", trial, str.Objective, dense.Objective)
		}
	}
}

// TestStageBackendNonConforming: declared structure whose matrix data
// breaks the band contract must silently use the dense path and still
// solve correctly.
func TestStageBackendNonConforming(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, ss := randStageQP(rng, 4, 1e-1)
	// Poison an out-of-band Hessian entry: stage 0 coupled to the last stage.
	lastLo := p.H.RawRow(0) // row 0 belongs to stage 0
	lastLo[len(lastLo)-1] = 0.5
	last := p.H.RawRow(len(lastLo) - 1)
	last[0] = 0.5

	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("solve failed: %v", err)
	}
	if res.Structured {
		t.Fatal("non-conforming problem reported Structured")
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Reference: same matrices with no declaration.
	p2 := *p
	p2.Stages = nil
	ref, err := Solve(&p2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.X {
		if math.Abs(res.X[i]-ref.X[i]) > 1e-9*(1+math.Abs(ref.X[i])) {
			t.Fatalf("X[%d] = %g, want %g", i, res.X[i], ref.X[i])
		}
	}
	_ = ss
}

// TestStageBackendDemotesOnLostQuasiDefiniteness: an indefinite stage
// Hessian block defeats the structured factorization's pivot-sign check;
// the solver must demote to the dense path mid-solve, report
// Structured=false, and still terminate cleanly.
func TestStageBackendDemotesOnLostQuasiDefiniteness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, _ := randStageQP(rng, 3, 1e-1)
	// Make one stage block strongly indefinite while keeping the band.
	p.H.Set(0, 0, -50)
	res, _ := Solve(p, Options{})
	if res == nil {
		t.Fatal("nil result")
	}
	if res.Structured {
		t.Fatal("indefinite problem reported Structured")
	}
	for _, v := range res.X {
		if math.IsNaN(v) {
			t.Fatal("NaN in solution after demotion")
		}
	}
}

func TestStageStructureCheck(t *testing.T) {
	ss := UniformStages(3, 2, 1, 4)
	if err := ss.Check(6, 3, 12); err != nil {
		t.Fatalf("valid structure rejected: %v", err)
	}
	if err := ss.Check(7, 3, 12); err == nil {
		t.Fatal("wrong variable sum accepted")
	}
	for _, bad := range []*StageStructure{
		UniformStages(0, 2, 1, 4),  // no stages
		UniformStages(3, 0, 1, 4),  // zero-variable stages
		UniformStages(3, 2, -1, 4), // negative equality count
		UniformStages(3, 2, 1, -4), // negative inequality count
	} {
		n, meq, min := bad.N*bad.NV, bad.N*bad.NE, bad.N*bad.NI
		if err := bad.Check(n, meq, min); err == nil {
			t.Errorf("invalid structure %+v accepted", *bad)
		}
	}
	// A bad declaration must surface from Solve as ErrBadProblem.
	p := &Problem{
		H:      mat.NewDense(2, 2),
		C:      []float64{0, 0},
		Stages: UniformStages(1, 3, 0, 0),
	}
	p.H.Set(0, 0, 1)
	p.H.Set(1, 1, 1)
	if _, err := Solve(p, Options{}); err == nil {
		t.Fatal("Solve accepted inconsistent stage declaration")
	}
}

// denseCopy returns p without its stage declaration: Solve then takes
// the dense reference path the structured backend is compared against.
func denseCopy(p *Problem) *Problem {
	d := *p
	d.Stages = nil
	return &d
}
