package sqp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"evclimate/internal/mat"
	"evclimate/internal/qp"
)

// randStageSub builds a seeded stage QP subproblem in the MPC's layout:
// nst stages of nv variables, the last nx of them state, ne equality and
// ni inequality rows per stage. Equality row e of stage k has a unit
// pivot on the stage's own variable e plus random coefficients across
// its window, like a discretized dynamics row. The first 2·nb inequality
// rows of each stage are bound pairs lo ≤ v ≤ hi on one own variable
// whose interval is empty about one time in three, so most problems are
// infeasible; the rest are general rows over the window.
func randStageSub(rng *rand.Rand, nst, nv, nx, ne, ni, nb int) *qp.Problem {
	h := make([]*mat.Dense, nst)
	for k := range h {
		g := mat.NewDense(nv, nv)
		for i := 0; i < nv; i++ {
			for j := 0; j < nv; j++ {
				g.Set(i, j, rng.NormFloat64())
			}
		}
		h[k] = g.T().Mul(g)
		for i := 0; i < nv; i++ {
			h[k].Add(i, i, 1)
		}
	}
	c := make([]float64, nst*nv)
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	aeq := qp.NewStageMatrix(nst, nv, nx, ne)
	beq := make([]float64, nst*ne)
	for r := range beq {
		lo, v := aeq.Row(r)
		for j := range v {
			if rng.Intn(2) == 0 {
				aeq.Set(r, lo+j, 0.3*rng.NormFloat64())
			}
		}
		aeq.Set(r, r/ne*nv+r%ne, 1)
		beq[r] = rng.NormFloat64()
	}
	ain := qp.NewStageMatrix(nst, nv, nx, ni)
	bin := make([]float64, nst*ni)
	for k := 0; k < nst; k++ {
		for i := 0; i < ni; i++ {
			r := k*ni + i
			if i < 2*nb {
				j := k*nv + (i/2)%nv
				if i%2 == 0 { // −v ≤ −lo
					ain.Set(r, j, -1)
					bin[r] = -rng.NormFloat64()
				} else { // v ≤ hi, below lo one time in three
					ain.Set(r, j, 1)
					bin[r] = -bin[r-1] + rng.NormFloat64() + 0.45
				}
				continue
			}
			lo, v := ain.Row(r)
			for j := range v {
				ain.Set(r, lo+j, rng.NormFloat64())
			}
			bin[r] = 1 + math.Abs(rng.NormFloat64())
		}
	}
	return &qp.Problem{H: h, C: c, Aeq: aeq, Beq: beq, Ain: ain, Bin: bin}
}

// TestSubproblemResetsIndefiniteBFGS: a BFGS block that lost positive
// definiteness fails the stage factorization with qp.ErrIndefinite, and
// the subproblem is re-solved once on the reset blocks hScale·I.
func TestSubproblemResetsIndefiniteBFGS(t *testing.T) {
	sub := randStageSub(rand.New(rand.NewSource(4)), 4, 3, 1, 1, 2, 0)
	ws := NewWorkspace()
	ws.ensure(12, 4, 8, 4, 1)
	for k, b := range ws.b {
		for i := 0; i < 3; i++ {
			copy(b.RawRow(i), sub.H[k].RawRow(i))
		}
	}
	ws.b[2].Set(1, 1, -40)
	sub.H = ws.b
	opt := qp.Options{Work: ws.qpWork}
	if _, err := qp.Solve(sub, opt); !errors.Is(err, qp.ErrIndefinite) {
		t.Fatalf("indefinite block: err %v, want qp.ErrIndefinite", err)
	}
	var res Result
	qr, err := solveSubproblem(ws, sub, opt, 3, &res)
	if err != nil {
		t.Fatalf("re-solve: %v", err)
	}
	if qr.Status != qp.Optimal {
		t.Fatalf("re-solve status %v, want optimal", qr.Status)
	}
	if res.Factorizations != 1+qr.Factorizations {
		t.Fatalf("%d factorizations, want the failed one plus the re-solve's %d", res.Factorizations, qr.Factorizations)
	}
	for k, b := range ws.b {
		for i := 0; i < 3; i++ {
			for j, v := range b.RawRow(i) {
				if (i == j && v != 3) || (i != j && v != 0) {
					t.Fatalf("block %d not reset to 3·I: %v", k, b)
				}
			}
		}
	}
}

// TestInfeasibleSubproblemFails: a subproblem with no feasible point is
// not repaired. x₀ + x₁ ≥ 1 and x₀ + x₁ ≤ −1 are linear, so every
// linearization is empty; the interior point breaks down on the first
// one and Solve ends Failed on that single QP solve, with the iterate
// left at the start.
func TestInfeasibleSubproblemFails(t *testing.T) {
	p := &Problem{
		N:         2,
		Objective: func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		Gradient:  func(x, g []float64) { g[0], g[1] = 2*x[0], 2*x[1] },
		MIneq:     2,
		Ineq: func(x, out []float64) {
			out[0] = 1 - x[0] - x[1]
			out[1] = x[0] + x[1] + 1
		},
		IneqJac: func(_ []float64, jac *qp.StageMatrix) {
			jac.Set(0, 0, -1)
			jac.Set(0, 1, -1)
			jac.Set(1, 0, 1)
			jac.Set(1, 1, 1)
		},
	}
	res, err := Solve(p, []float64{0, 0}, Options{})
	if err == nil || res.Status != Failed {
		t.Fatalf("status %v, err %v; want Failed with an error", res.Status, err)
	}
	// The first subproblem by hand: H = (1 + ‖∇f‖∞)·I = I at the origin,
	// no linear term, the rows at their Jacobian and −ci.
	ain := qp.NewStageMatrix(1, 2, 0, 2)
	p.IneqJac(nil, ain)
	sub := &qp.Problem{H: []*mat.Dense{mat.Identity(2)}, C: make([]float64, 2), Ain: ain, Bin: []float64{-1, -1}}
	qr, qerr := qp.Solve(sub, qp.Options{Tol: 1e-8})
	if qerr == nil || qr.Status != qp.NumericalFailure {
		t.Fatalf("first subproblem: status %v, err %v; want a numerical failure", qr.Status, qerr)
	}
	if res.Iterations != 1 || res.QPIterations != qr.Iterations || res.Factorizations != qr.Factorizations {
		t.Fatalf("%d SQP iterations, %d QP iterations, %d factorizations; want 1 and the one subproblem's %d and %d",
			res.Iterations, res.QPIterations, res.Factorizations, qr.Iterations, qr.Factorizations)
	}
	if res.X[0] != 0 || res.X[1] != 0 {
		t.Fatalf("iterate moved to %v on a failed subproblem", res.X)
	}
}
