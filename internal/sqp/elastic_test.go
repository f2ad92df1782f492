package sqp

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
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

// mpcQPTol is the subproblem tolerance the MPC solves its QPs and their
// elastic fallbacks to: its SQP tolerance 1e-4, two orders tighter.
const mpcQPTol = 1e-6

// thermalSub is a thermal-MPC-shaped elastic fallback input: 12 stages
// of 10 variables ending in a 2-variable state, 4 equality rows and 18
// inequality rows per stage, 16 of them single-variable bounds.
func thermalSub() *qp.Problem {
	return randStageSub(rand.New(rand.NewSource(18)), 12, 10, 2, 4, 18, 8)
}

// TestElasticStageFormMatchesOneStage: the elastic QP built in the
// subproblem's stage layout is, entry for entry, the one-stage elastic
// QP with its variables and inequality rows permuted, and factored by
// the Riccati recursion it solves like it. On seeded, mostly infeasible
// stage QPs both forms must end with the same status after the same
// number of interior-point iterations, at nearby steps and multipliers.
// The solves run to the MPC's subproblem tolerance; near 1e-8 the dual
// residual of either form stalls on the roundoff of the condensed
// Newton system, and which form recovers first is chance. The stopping
// test scales the dual residual by 1 + ‖c‖∞ ≈ 1e4, the slack weight, so
// a stop at 1e-6 pins the solution only to about 1e-4 where the optimum
// is flat: steps and multipliers are compared at 1e-3.
func TestElasticStageFormMatchesOneStage(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	infeasible := 0
	var worst, worstDual float64
	for trial := 0; trial < 40; trial++ {
		sub := randStageSub(rng, 6, 3+rng.Intn(3), 1, 1+rng.Intn(2), 4+rng.Intn(3), 2)
		if r, _ := qp.Solve(sub, qp.Options{}); r.Status != qp.Optimal {
			infeasible++
		}
		opt := qp.Options{Tol: mpcQPTol}
		sa, oa := &elasticArena{}, &elasticArena{}
		st, err := solveElastic(sub, elasticWeight, opt, sa)
		if err != nil {
			t.Fatalf("trial %d: stage form: %v", trial, err)
		}
		one, err := solveElastic(sub.OneStage(), elasticWeight, opt, oa)
		if err != nil {
			t.Fatalf("trial %d: one-stage form: %v", trial, err)
		}
		samePermuted(t, trial, sub, &sa.prob, &oa.prob)
		if st.Status != one.Status || st.Iterations != one.Iterations {
			t.Fatalf("trial %d: stage form %v after %d iterations, one-stage %v after %d",
				trial, st.Status, st.Iterations, one.Status, one.Iterations)
		}
		for i, want := range one.X {
			d := math.Abs(st.X[i]-want) / (1 + math.Abs(want))
			worst = math.Max(worst, d)
			if d > 1e-3 {
				t.Fatalf("trial %d: X[%d] = %.12g, one-stage %.12g", trial, i, st.X[i], want)
			}
		}
		if len(st.InDuals) != len(sub.Bin) || len(st.EqDuals) != len(sub.Beq) {
			t.Fatalf("trial %d: %d/%d duals for %d/%d rows", trial, len(st.EqDuals), len(st.InDuals), len(sub.Beq), len(sub.Bin))
		}
		for _, d := range [][2][]float64{{st.EqDuals, one.EqDuals}, {st.InDuals, one.InDuals}} {
			for i, want := range d[1] {
				g := math.Abs(d[0][i]-want) / (1 + math.Abs(want))
				worstDual = math.Max(worstDual, g)
				if g > 1e-3 {
					t.Fatalf("trial %d: dual %d = %.12g, one-stage %.12g", trial, i, d[0][i], want)
				}
			}
		}
	}
	if infeasible < 20 {
		t.Fatalf("only %d of 40 subproblems stop short of Optimal without slacks; the suite should be mostly infeasible", infeasible)
	}
	t.Logf("%d of 40 subproblems stop short of Optimal without slacks; worst relative gap X %.2g, duals %.2g", infeasible, worst, worstDual)
}

// samePermuted checks that the stage-form elastic QP st of sub is the
// one-stage elastic QP one with its variables and inequality rows in
// stage order, bit for bit.
func samePermuted(t *testing.T, trial int, sub, st, one *qp.Problem) {
	t.Helper()
	nst := len(sub.H)
	nv, _ := sub.H[0].Dims()
	_, _, nx, ne := sub.Aeq.Layout()
	_, _, _, ni := sub.Ain.Layout()
	n, meq, min := nst*nv, nst*ne, nst*ni
	nc, ns := nv-nx, 2*ne+ni
	// col[j], row[r]: the stage-form index of one-stage variable j and
	// inequality row r.
	col := make([]int, nst*(nv+ns))
	row := make([]int, nst*(ni+ns))
	for k := 0; k < nst; k++ {
		o := k * (nv + ns)
		for i := 0; i < nv; i++ {
			col[k*nv+i] = o + i
			if i >= nc {
				col[k*nv+i] += ns
			}
		}
		for e := 0; e < 2*ne; e++ {
			col[n+2*k*ne+e] = o + nc + e
			row[min+2*k*ne+e] = k*(ni+ns) + ni + e
		}
		for i := 0; i < ni; i++ {
			col[n+2*meq+k*ni+i] = o + nc + 2*ne + i
			row[k*ni+i] = k*(ni+ns) + i
			row[min+2*meq+k*ni+i] = k*(ni+ns) + ni + 2*ne + i
		}
	}
	ds := st.OneStage()
	same := func(what string, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: %s: stage form %v, one-stage %v", trial, what, a, b)
		}
	}
	for a := range col {
		same("c", ds.C[col[a]], one.C[a])
		for b := range col {
			same("H", ds.H[0].At(col[a], col[b]), one.H[0].At(a, b))
		}
		for r := range one.Beq {
			same("Aeq", ds.Aeq.At(r, col[a]), one.Aeq.At(r, a))
		}
		for r := range row {
			same("Ain", ds.Ain.At(row[r], col[a]), one.Ain.At(r, a))
		}
	}
	for r := range row {
		same("bin", ds.Bin[row[r]], one.Bin[r])
	}
}

// TestWarmStageElasticNoAllocs: a warm elastic fallback on a multi-stage
// subproblem runs allocation-free, and even the first one stays on the
// Riccati backend — it allocates less than the one dense block of the
// full elastic KKT matrix that a dense backend would need.
func TestWarmStageElasticNoAllocs(t *testing.T) {
	sub := thermalSub()
	ar := &elasticArena{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := solveElastic(sub, elasticWeight, qp.Options{Tol: mpcQPTol}, ar); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	nTot := 12 * (10 + 2*4 + 18)
	if got, dense := m1.TotalAlloc-m0.TotalAlloc, uint64(8*nTot*nTot); got >= dense {
		t.Fatalf("first stage elastic fallback allocated %d B, a dense %d×%d block is %d B", got, nTot, nTot, dense)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := solveElastic(sub, elasticWeight, qp.Options{Tol: mpcQPTol}, ar); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm stage elastic fallback allocates %v objects/op, want 0", allocs)
	}
}

// TestSubproblemResetsIndefiniteBFGS: a BFGS block that lost positive
// definiteness fails the stage factorization with qp.ErrIndefinite.
// Slacks cannot repair a Hessian, so the subproblem is re-solved once on
// the reset blocks hScale·I, and no elastic fallback runs.
func TestSubproblemResetsIndefiniteBFGS(t *testing.T) {
	sub := randStageSub(rand.New(rand.NewSource(4)), 4, 3, 1, 1, 2, 0)
	ws := NewWorkspace()
	ws.ensure(12, 4, 8, 4, 1)
	for k, b := range ws.b {
		b.CopyFrom(sub.H[k])
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
	if res.ElasticFallbacks != 0 || ws.el != nil {
		t.Fatalf("%d elastic fallbacks, want none", res.ElasticFallbacks)
	}
	if res.Factorizations != 1+qr.Factorizations {
		t.Fatalf("%d factorizations, want the failed one plus the re-solve's %d", res.Factorizations, qr.Factorizations)
	}
	for k, b := range ws.b {
		if !b.EqualApprox(mat.Identity(3).Scale(3), 0) {
			t.Fatalf("block %d not reset to 3·I: %v", k, b)
		}
	}
}

// TestFDJacobianProducts: fdJac writes through StageMatrix.Set, and the
// products of the result equal, bit for bit, those of a dense matrix
// holding the same forward differences inside each row's window — the
// Jacobian fdJac built when it wrote the window storage directly.
func TestFDJacobianProducts(t *testing.T) {
	const stages, nv, nx, rows = 3, 3, 1, 2
	p := &Problem{
		N:      stages * nv,
		Stages: stages,
		NX:     nx,
		MIneq:  stages * rows,
		Ineq: func(x, out []float64) {
			for k := 0; k < stages; k++ {
				v := x[k*nv : (k+1)*nv]
				prev := 0.0
				if k > 0 {
					prev = x[k*nv-1]
				}
				out[k*rows] = v[0]*v[1] + math.Sin(prev)
				out[k*rows+1] = v[2] * v[2] // zero derivative at v[2] = 0
			}
		},
	}
	ws := NewWorkspace()
	ws.ensure(p.N, 0, p.MIneq, stages, nx)
	ev := &evaluator{p: p, ws: ws}
	x := []float64{0.5, -1, 0, 2, 0.25, 0, -0.75, 1.5, 0}
	jac := ev.ineqJacInto(x, ws.ji)

	dense := mat.NewDense(p.MIneq, p.N)
	base, pert := make([]float64, p.MIneq), make([]float64, p.MIneq)
	p.Ineq(x, base)
	xt := mat.CloneVec(x)
	for j := range x {
		h := fdStep * (1 + math.Abs(x[j]))
		xt[j] = x[j] + h
		p.Ineq(xt, pert)
		xt[j] = x[j]
		for i := range pert {
			if lo, v := jac.Row(i); j >= lo && j < lo+len(v) {
				dense.Set(i, j, (pert[i]-base[i])/h)
			}
		}
	}
	y := []float64{1, 0, -2, 0.5, 3, -1}
	if got, want := jac.MulVecInto(x, make([]float64, p.MIneq)), dense.MulVec(x); !bitsSame(got, want) {
		t.Errorf("J·x = %v, dense %v", got, want)
	}
	if got, want := jac.MulVecTInto(y, make([]float64, p.N)), dense.MulVecT(y); !bitsSame(got, want) {
		t.Errorf("Jᵀ·y = %v, dense %v", got, want)
	}
}

// BenchmarkSQPElasticFallback runs the elastic fallback on a
// thermal-MPC-shaped infeasible stage subproblem (thermalSub) through a
// warm arena: the cost of the rare QP failure in the thermal MPC.
func BenchmarkSQPElasticFallback(b *testing.B) {
	sub := thermalSub()
	ar := &elasticArena{}
	if _, err := solveElastic(sub, elasticWeight, qp.Options{Tol: mpcQPTol}, ar); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveElastic(sub, elasticWeight, qp.Options{Tol: mpcQPTol}, ar); err != nil {
			b.Fatal(err)
		}
	}
}
