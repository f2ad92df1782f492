package qp

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"

	"evclimate/internal/mat"
)

// randStageQP builds a random stage-structured QP: block-diagonal SPD-ish
// Hessian, stage constraint rows supported on all of stages k−1..k (nx =
// nv, so the Riccati cost-to-go is a full stage block), and a feasible point with a
// tunable mix of tight and slack inequalities so active sets vary across
// seeds. ridge controls how close the stage Hessian blocks are to
// singular.
func randStageQP(rng *rand.Rand, nst int, ridge float64) *Problem {
	nv, ne, ni := 1+rng.Intn(4), rng.Intn(2), 1+rng.Intn(3)
	// Stage 0 rows have no previous stage; keep the equality count below
	// the variable count so its rows stay independent.
	if ne >= nv {
		ne = nv - 1
	}
	return shapedStageQP(rng, nst, nv, ne, nv, ni, ridge)
}

// shapedStageQP is randStageQP at a given layout: nv variables, ne
// equality and ni inequality rows per stage, rows reaching back to the
// last nx variables of the previous stage.
func shapedStageQP(rng *rand.Rand, nst, nv, ne, nx, ni int, ridge float64) *Problem {
	n := nst * nv

	h := make([]*mat.Dense, nst)
	for k := range h {
		h[k] = mat.NewDense(nv, nv)
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
					s += ridge + 2
				}
				h[k].Set(i, j, s)
				h[k].Set(j, i, s)
			}
		}
	}

	c := make([]float64, n)
	xf := make([]float64, n)
	for i := range c {
		c[i] = rng.NormFloat64()
		xf[i] = rng.NormFloat64()
	}

	// randRows fills a stage matrix with rows per stage random rows over
	// each row's window and returns each row's value at xf, plus a slack
	// when slack is set.
	randRows := func(rows int, slack bool) (*StageMatrix, []float64) {
		a := NewStageMatrix(nst, nv, nx, rows)
		dots := make([]float64, nst*rows)
		for r := range dots {
			lo, v := a.Row(r)
			for j := range v {
				a.Set(r, lo+j, rng.NormFloat64())
				dots[r] += v[j] * xf[lo+j]
			}
			if slack {
				// Half the rows are nearly tight at xf, half are slack, so
				// the optimizer sees varied active sets across seeds.
				sl := 2 * rng.Float64()
				if rng.Intn(2) == 0 {
					sl = 1e-3
				}
				dots[r] += sl
			}
		}
		return a, dots
	}
	p := &Problem{H: h, C: c}
	if ne > 0 {
		p.Aeq, p.Beq = randRows(ne, false) // xf is equality-feasible
	}
	p.Ain, p.Bin = randRows(ni, true)
	return p
}

// TestStageBackendMatchesDense is the equivalence property suite: over a
// spread of random stage-structured QPs (varying stage counts and sizes,
// active sets, and near-singular stage Hessians), the Riccati recursion
// over the stages must reproduce the solution and multipliers of the
// problem's one-stage form, whose whole Newton system factors densely as
// a single stage, to tight tolerance. Both forms solve the identical
// regularized system; the worst relative gaps are logged.
func TestStageBackendMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	var worstX, worstEq, worstIn, worstObj float64
	gap := func(worst *float64, got, want float64) float64 {
		d := math.Abs(got-want) / (1 + math.Abs(want))
		*worst = math.Max(*worst, d)
		return d
	}
	for trial := 0; trial < 60; trial++ {
		nst := 2 + rng.Intn(8)
		ridge := 1e-1
		if trial%3 == 0 {
			ridge = 1e-8 // near-singular stage Hessians
		}
		p := randStageQP(rng, nst, ridge)

		one, err := Solve(p.OneStage(), Options{})
		if err != nil {
			t.Fatalf("trial %d: one-stage solve failed: %v", trial, err)
		}
		str, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: structured solve failed: %v", trial, err)
		}
		if one.Status != Optimal || str.Status != Optimal {
			t.Fatalf("trial %d: status one-stage=%v structured=%v", trial, one.Status, str.Status)
		}
		for i := range one.X {
			if d := gap(&worstX, str.X[i], one.X[i]); d > 1e-6 {
				t.Fatalf("trial %d: X[%d] = %.12g, one-stage %.12g (Δ %g)", trial, i, str.X[i], one.X[i], d)
			}
		}
		for i := range one.EqDuals {
			if d := gap(&worstEq, str.EqDuals[i], one.EqDuals[i]); d > 1e-5 {
				t.Fatalf("trial %d: EqDuals[%d] = %.12g, one-stage %.12g", trial, i, str.EqDuals[i], one.EqDuals[i])
			}
		}
		for i := range one.InDuals {
			if d := gap(&worstIn, str.InDuals[i], one.InDuals[i]); d > 1e-5 {
				t.Fatalf("trial %d: InDuals[%d] = %.12g, one-stage %.12g", trial, i, str.InDuals[i], one.InDuals[i])
			}
		}
		if d := gap(&worstObj, str.Objective, one.Objective); d > 1e-7 {
			t.Fatalf("trial %d: objective %.15g vs one-stage %.15g", trial, str.Objective, one.Objective)
		}
	}
	t.Logf("worst relative gap to the one-stage form: X %.2g, EqDuals %.2g, InDuals %.2g, objective %.2g", worstX, worstEq, worstIn, worstObj)
}

// TestStageBackendFailsOnIndefiniteStage: a strongly indefinite stage
// Hessian block fails the stage Cholesky on the first Newton step, and
// the solve ends there with NumericalFailure, an error wrapping
// ErrIndefinite and a finite X — no retry, so exactly one
// factorization.
func TestStageBackendFailsOnIndefiniteStage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randStageQP(rng, 3, 1e-1)
	p.H[0].Set(0, 0, -50)
	res, err := Solve(p, Options{})
	if !errors.Is(err, ErrIndefinite) || res == nil || res.Status != NumericalFailure {
		t.Fatalf("indefinite stage block: err %v, result %+v; want NumericalFailure wrapping ErrIndefinite", err, res)
	}
	if res.Factorizations != 1 {
		t.Fatalf("%d factorizations, want 1 (no retry)", res.Factorizations)
	}
	if !mat.AllFinite(res.X) {
		t.Fatalf("non-finite X = %v", res.X)
	}
}

// TestStageMatrixRejectsBadDims: a stage matrix needs at least one stage
// of at least one variable and a nonnegative row count, and Solve
// rejects constraint blocks whose stage layout disagrees with the
// Hessian's.
func TestStageMatrixRejectsBadDims(t *testing.T) {
	for _, bad := range [][4]int{
		{0, 2, 0, 1},  // no stages
		{3, 0, 0, 1},  // zero-variable stages
		{3, 2, -1, 1}, // negative state width
		{3, 2, 3, 1},  // state wider than the stage
		{3, 2, 1, -1}, // negative row count
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStageMatrix%v accepted", bad)
				}
			}()
			NewStageMatrix(bad[0], bad[1], bad[2], bad[3])
		}()
	}
	h := []*mat.Dense{mat.Identity(2), mat.Identity(2), mat.Identity(2)}
	for _, tc := range []struct {
		name string
		ain  *StageMatrix
		bin  []float64
	}{
		{"stage count", NewStageMatrix(2, 2, 1, 1), make([]float64, 2)},
		{"stage width", NewStageMatrix(3, 1, 1, 1), make([]float64, 3)},
		{"right-hand side", NewStageMatrix(3, 2, 1, 1), make([]float64, 2)},
	} {
		p := &Problem{H: h, C: make([]float64, 6), Ain: tc.ain, Bin: tc.bin}
		if _, err := Solve(p, Options{}); !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s mismatch: err = %v, want ErrBadProblem", tc.name, err)
		}
	}
	mixed := &Problem{H: h, C: make([]float64, 6),
		Aeq: NewStageMatrix(3, 2, 1, 1), Beq: make([]float64, 3),
		Ain: NewStageMatrix(3, 2, 2, 1), Bin: make([]float64, 3)}
	if _, err := Solve(mixed, Options{}); !errors.Is(err, ErrBadProblem) {
		t.Errorf("state width mismatch: err = %v, want ErrBadProblem", err)
	}
	h[1] = mat.Identity(3)
	if _, err := Solve(&Problem{H: h, C: make([]float64, 6)}, Options{}); !errors.Is(err, ErrBadProblem) {
		t.Errorf("ragged Hessian blocks: err = %v, want ErrBadProblem", err)
	}
}

// At returns entry (i, j), panicking outside row i's window.
func (a *StageMatrix) At(i, j int) float64 { return a.data[a.at(i, j)] }

// TestStageMatrixWindow pins the storage contract: entries inside a
// row's window (the last nx variables of stage k−1 and all of stage k,
// stage 0 its own) round-trip through Set/At/Row, and Set or At outside
// it panics, so a band violation cannot be built.
func TestStageMatrixWindow(t *testing.T) {
	a := NewStageMatrix(3, 2, 1, 2) // 6×6, rows 2k..2k+1 in stage k, one state column
	if r, c := a.Dims(); r != 6 || c != 6 {
		t.Fatalf("Dims = %d×%d, want 6×6", r, c)
	}
	for _, tc := range []struct{ row, lo, hi int }{{0, 0, 2}, {1, 0, 2}, {2, 1, 4}, {5, 3, 6}} {
		for j := tc.lo; j < tc.hi; j++ {
			a.Set(tc.row, j, float64(10*tc.row+j))
		}
		lo, v := a.Row(tc.row)
		if lo != tc.lo || len(v) != tc.hi-tc.lo {
			t.Errorf("row %d window [%d, %d), want [%d, %d)", tc.row, lo, lo+len(v), tc.lo, tc.hi)
		}
		for j := tc.lo; j < tc.hi; j++ {
			if got := a.At(tc.row, j); got != float64(10*tc.row+j) || v[j-lo] != got {
				t.Errorf("entry (%d, %d) = %v / %v, want %v", tc.row, j, got, v[j-lo], 10*tc.row+j)
			}
		}
	}
	for _, ij := range [][2]int{{0, 2}, {1, 5}, {2, 0}, {2, 4}, {4, 0}, {4, 2}, {5, 1}, {6, 0}, {-1, 0}} {
		for name, f := range map[string]func(){
			"Set": func() { a.Set(ij[0], ij[1], 1) },
			"At":  func() { a.At(ij[0], ij[1]) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d, %d) outside the window did not panic", name, ij[0], ij[1])
					}
				}()
				f()
			}()
		}
	}
}

// TestStageMatrixProducts checks MulVecInto and MulVecTInto against the
// dense products of the same entries, bit for bit, while the packed
// nonzero lists are rebuilt around them: random windows, a write after a
// product, explicit zeros over nonzeros, Zero, and bound rows with one
// entry each.
func TestStageMatrixProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewStageMatrix(4, 3, 2, 2)
	d := mat.NewDense(8, 12)
	set := func(i, j int, v float64) {
		a.Set(i, j, v)
		d.Set(i, j, v)
	}
	x := make([]float64, 12)
	y := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	y[3] = 0
	check := func(step string) {
		t.Helper()
		if got, want := a.MulVecInto(x, make([]float64, 8)), d.MulVec(x); !bits64(got, want) {
			t.Errorf("%s: A·x = %v, dense %v", step, got, want)
		}
		if got, want := a.MulVecTInto(y, make([]float64, 12)), mulVecT(d, y); !bits64(got, want) {
			t.Errorf("%s: Aᵀ·y = %v, dense %v", step, got, want)
		}
	}
	check("empty")
	for i := 0; i < 8; i++ {
		lo, v := a.Row(i)
		for j := range v {
			set(i, lo+j, rng.NormFloat64())
		}
	}
	check("full windows")
	set(5, 4, 7.5) // a write after a product
	check("rewritten entry")
	for _, ij := range [][2]int{{0, 1}, {2, 2}, {2, 5}, {7, 10}} {
		set(ij[0], ij[1], 0) // explicit zeros over nonzeros
	}
	check("explicit zeros")
	a.Zero()
	d.Zero()
	check("zeroed")
	for i := 0; i < 8; i++ { // one bound entry per row, as the MPC's
		lo, v := a.Row(i)
		set(i, lo+i%len(v), float64(1-2*(i%2)))
	}
	set(6, 8, 0) // row 6 back to empty
	check("bound rows")
}

// coldDemotionQP loads testdata/cold_mpc_demotion.json: a real cabin-only
// MPC subproblem from the soaked deep-cold grid on which an unpivoted
// block LDLᵀ of the stage-interleaved KKT matrix loses a pivot sign, with
// the subproblem
// tolerance SQP solved it to. The fixture stores each row over all of
// stages k−1..k; the loader keeps the cabin MPC's windows, whose one
// state column is x_{k+1}, and checks that the columns it drops are zero.
func coldDemotionQP(t testing.TB) (*Problem, float64) {
	t.Helper()
	raw, err := os.ReadFile("testdata/cold_mpc_demotion.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Stages, NV, NE, NI int
		Tol                float64
		H, Aeq, Ain        [][]float64
		C, Beq, Bin        []float64
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	const nx = 1
	rows := func(per int, data [][]float64) *StageMatrix {
		a := NewStageMatrix(f.Stages, f.NV, nx, per)
		for i, v := range data {
			lo, row := a.Row(i)
			drop := len(v) - len(row)
			for j, x := range v[:drop] {
				if x != 0 {
					t.Fatalf("fixture row %d has %g in column %d outside the cabin MPC's window", i, x, j)
				}
			}
			for j, x := range v[drop:] {
				a.Set(i, lo+j, x)
			}
		}
		return a
	}
	p := &Problem{C: f.C, Aeq: rows(f.NE, f.Aeq), Beq: f.Beq, Ain: rows(f.NI, f.Ain), Bin: f.Bin}
	for _, v := range f.H {
		p.H = append(p.H, mat.NewDenseData(f.NV, f.NV, v))
	}
	return p, f.Tol
}

// TestStageBackendStaysStructuredOnColdMPC: on the real MPC subproblem
// that used to demote, every Newton step factors on the stage path (one
// factorization per step, no failure), and the solve ends with a status
// and final residuals no worse than its one-stage form's. A
// residual counts as worse only above the solve tolerance and beyond
// roundoff (1e-6 relative) of the oracle's.
func TestStageBackendStaysStructuredOnColdMPC(t *testing.T) {
	p, tol := coldDemotionQP(t)
	str, err := Solve(p, Options{Tol: tol})
	if err != nil {
		t.Fatalf("stage solve: %v", err)
	}
	steps := str.Iterations
	if str.Status == Optimal {
		steps-- // the converged iteration factors nothing
	}
	if str.Factorizations != steps {
		t.Fatalf("%d factorizations in %d Newton steps", str.Factorizations, steps)
	}
	one, err := Solve(p.OneStage(), Options{Tol: tol})
	if err != nil {
		t.Fatalf("one-stage solve: %v", err)
	}
	t.Logf("stage: %v after %d iterations, primal %.3g dual %.3g; one-stage: %v after %d, primal %.3g dual %.3g",
		str.Status, str.Iterations, str.PrimalInfeas, str.DualInfeas, one.Status, one.Iterations, one.PrimalInfeas, one.DualInfeas)
	if str.Status > one.Status {
		t.Fatalf("status stage=%v, one-stage=%v", str.Status, one.Status)
	}
	worse := func(got, want float64) bool { return got > tol && got > want*(1+1e-6) }
	if worse(str.PrimalInfeas, one.PrimalInfeas) || worse(str.DualInfeas, one.DualInfeas) {
		t.Fatalf("final residuals primal %g dual %g, one-stage form %g and %g", str.PrimalInfeas, str.DualInfeas, one.PrimalInfeas, one.DualInfeas)
	}
}
