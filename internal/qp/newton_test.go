package qp

import (
	"math"
	"math/rand"
	"testing"

	"evclimate/internal/mat"
)

// saddle assembles the regularized Newton matrix
//
//	[ H + AinᵀD Ain + regI    Aeqᵀ  ]
//	[ Aeq                    −regI  ],   D = diag(z/s),
//
// densely from the problem's entries, sharing no code with the stage
// recursion.
func saddle(p *Problem, z, s []float64) *mat.Dense {
	nv, _ := p.H[0].Dims()
	n, meq := len(p.H)*nv, 0
	if p.Aeq != nil {
		meq, _ = p.Aeq.Dims()
	}
	m := mat.NewDense(n+meq, n+meq)
	for k, b := range p.H {
		for i := 0; i < nv; i++ {
			for j := 0; j < nv; j++ {
				m.Set(k*nv+i, k*nv+j, b.At(i, j))
			}
		}
	}
	for i := 0; i < n; i++ {
		m.Add(i, i, kktReg)
	}
	for r := range z {
		d := z[r] / s[r]
		lo, a := p.Ain.Row(r)
		for i, ai := range a {
			for j, aj := range a {
				m.Add(lo+i, lo+j, d*ai*aj)
			}
		}
	}
	for e := 0; e < meq; e++ {
		lo, a := p.Aeq.Row(e)
		for j, v := range a {
			m.Set(n+e, lo+j, v)
			m.Set(lo+j, n+e, v)
		}
		m.Set(n+e, n+e, -kktReg)
	}
	return m
}

// backwardError returns the componentwise (Oettli–Prager) backward error
// of v as a solution of m·v = r: the smallest ω for which v solves a
// system whose every entry of m and r is perturbed by at most ω of its
// size. Unlike the forward error it does not grow with the condition
// number.
func backwardError(m *mat.Dense, v, r []float64) float64 {
	var w float64
	for i, mv := range m.MulVec(v) {
		den := math.Abs(r[i])
		for j, mij := range m.RawRow(i) {
			den += math.Abs(mij * v[j])
		}
		if res := math.Abs(mv - r[i]); res > 0 {
			w = math.Max(w, res/den)
		}
	}
	return w
}

// relGap returns the normwise relative gap of v to the reference ref:
// max |v − ref| over max |ref|.
func relGap(v, ref []float64) float64 {
	return mat.NormInf(mat.SubVecInto(make([]float64, len(v)), v, ref)) / mat.NormInf(ref)
}

// Tolerances of the Newton-step oracle. stepTol bounds the normwise
// relative gap between the stage and LU steps where the barrier weights
// stay within 1e-8…1e12 (worst seen: 5.4e-5 on randStageQP's layouts,
// 9.6e-4 on the thermal layout, where the LU step's backward error is
// 9.1e-6 and the stage step's 4.7e-15); omegaTol bounds the stage step's
// componentwise backward error (worst seen: 6.9e-10 on the random
// problems, 1.1e-12 on the cold fixture, against up to 1.9e-4 for the
// LU step itself).
const (
	stepTol  = 1e-3
	omegaTol = 1e-8
)

// TestNewtonStepMatchesLU checks the Newton steps of the stage
// recursion (factor + solveInto) against a dense LU solve of the
// assembled saddle matrix, on random multi-stage problems and their
// one-stage forms with barrier weights z/s spread log-uniformly over
// 1e-8…1e12, and on the cold MPC fixture at the final iterate of its
// solve. Beside randStageQP's small full-state layouts, the random
// problems take the MPC's own: the cabin stage (nv 8, ne 3, nx 1) and
// the co-scheduling thermal stage (nv 11, ne 4, nx 2), whose state is a
// strict part of the stage. Every step must solve the assembled system
// to a componentwise backward error of omegaTol; on the random problems
// it must also lie within stepTol of the LU step. At the cold fixture's final iterate
// the weights span 1e-26…1e37, where the forward gap says nothing — a
// 600-bit reference solve puts both double-precision steps O(1) away
// from the exact one — so the gap there is only logged.
func TestNewtonStepMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	var worstGap, worstOmega float64
	check := func(name string, p *Problem, z, s []float64, forward bool) {
		t.Helper()
		m := saddle(p, z, s)
		n := len(p.C)
		dim, _ := m.Dims()
		r := make([]float64, dim)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		ref, err := luSolve(m, r)
		if err != nil {
			t.Fatalf("%s: LU of the saddle matrix: %v", name, err)
		}

		var f stageKKT
		f.ensure(p)
		if err := f.factor(p, z, s); err != nil {
			t.Fatalf("%s: stage factorization: %v", name, err)
		}
		step := make([]float64, dim)
		f.solveInto(r[:n], r[n:], step[:n], step[n:])

		gap, omega := relGap(step, ref), backwardError(m, step, r)
		worstOmega = math.Max(worstOmega, omega)
		if omega > omegaTol {
			t.Errorf("%s: stage step has backward error %.3g (LU step %.3g)", name, omega, backwardError(m, ref, r))
		}
		if !forward {
			t.Logf("%s: gap to the LU step %.3g, backward error %.3g (LU step %.3g)", name, gap, omega, backwardError(m, ref, r))
			return
		}
		worstGap = math.Max(worstGap, gap)
		if !(gap <= stepTol) {
			t.Errorf("%s: stage step differs from the LU step by %.3g relative", name, gap)
		}
	}
	random := func(name string, p *Problem) {
		t.Helper()
		ni, _ := p.Ain.Dims()
		z, s := make([]float64, ni), make([]float64, ni)
		for r := range z {
			s[r] = math.Pow(10, -6*rng.Float64())
			z[r] = s[r] * math.Pow(10, -8+20*rng.Float64())
		}
		check(name, p, z, s, true)
		check(name+", one-stage form", p.OneStage(), z, s, true)
	}
	for trial := 0; trial < 40; trial++ {
		random("random", randStageQP(rng, 1+rng.Intn(8), 1e-1))
	}
	p, tol := coldDemotionQP(t)
	ws := NewWorkspace()
	if _, err := Solve(p, Options{Tol: tol, Work: ws}); err != nil {
		t.Fatalf("cold fixture solve: %v", err)
	}
	check("cold fixture", p, ws.z, ws.s, false)
	for _, sh := range []struct {
		name       string
		nv, ne, nx int
	}{{"cabin layout", 8, 3, 1}, {"thermal layout", 11, 4, 2}} {
		for trial := 0; trial < 10; trial++ {
			random(sh.name, shapedStageQP(rng, 1+rng.Intn(8), sh.nv, sh.ne, sh.nx, sh.nv, 1e-1))
		}
	}
	t.Logf("random problems: worst gap to the LU step %.2g; all inputs: worst backward error %.2g", worstGap, worstOmega)
}
