package qp

import (
	"math"
	"math/rand"
	"testing"

	"evclimate/internal/mat"
)

// denseQP is a one-stage problem written with dense matrices, the form
// the hand-built tests use; nil matrices are absent blocks.
type denseQP struct {
	H, Aeq, Ain *mat.Dense
	C, Beq, Bin []float64
}

func (d denseQP) problem() *Problem {
	p := &Problem{C: d.C, Aeq: oneStage(d.Aeq), Beq: d.Beq, Ain: oneStage(d.Ain), Bin: d.Bin}
	if d.H != nil {
		p.H = []*mat.Dense{d.H}
	}
	return p
}

// oneStage copies a dense matrix into a one-stage StageMatrix (nil for
// nil).
func oneStage(a *mat.Dense) *StageMatrix {
	if a == nil {
		return nil
	}
	r, c := a.Dims()
	s := NewStageMatrix(1, c, 0, r)
	for i := 0; i < r; i++ {
		for j, v := range a.RawRow(i) {
			s.Set(i, j, v)
		}
	}
	return s
}

// mulVecT returns mᵀ·x without forming the transpose, skipping the rows
// where x is zero.
func mulVecT(m *mat.Dense, x []float64) []float64 {
	_, c := m.Dims()
	out := make([]float64, c)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for j, v := range m.RawRow(i) {
			out[j] += xi * v
		}
	}
	return out
}

// filled returns a vector of n copies of v.
func filled(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func vecApprox(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Errorf("%s[%d] = %v, want %v (tol %v)", label, i, got[i], want[i], tol)
		}
	}
}

func TestUnconstrainedQuadratic(t *testing.T) {
	// min ½xᵀHx + cᵀx with H = diag(2, 4), c = (−2, −8) → x = (1, 2).
	p := denseQP{
		H: mat.FromRows([][]float64{{2, 0}, {0, 4}}),
		C: []float64{-2, -8},
	}.problem()
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	vecApprox(t, res.X, []float64{1, 2}, 1e-8, "x")
	if math.Abs(res.Objective-(-9)) > 1e-8 {
		t.Errorf("objective = %v, want -9", res.Objective)
	}
}

func TestEqualityConstrainedQuadratic(t *testing.T) {
	// min ½(x₁²+x₂²) s.t. x₁+x₂ = 2 → x = (1, 1), dual y = −1 (for Hx+Aᵀy=0).
	p := denseQP{
		H:   mat.Identity(2),
		C:   []float64{0, 0},
		Aeq: mat.FromRows([][]float64{{1, 1}}),
		Beq: []float64{2},
	}.problem()
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vecApprox(t, res.X, []float64{1, 1}, 1e-7, "x")
	// KKT: Hx + Aᵀy = 0 → y = −1.
	if math.Abs(res.EqDuals[0]+1) > 1e-6 {
		t.Errorf("dual = %v, want -1", res.EqDuals[0])
	}
}

func TestActiveInequality(t *testing.T) {
	// min ½‖x − (3,3)‖² s.t. x₁ + x₂ ≤ 2 → x = (1, 1).
	p := denseQP{
		H:   mat.Identity(2),
		C:   []float64{-3, -3},
		Ain: mat.FromRows([][]float64{{1, 1}}),
		Bin: []float64{2},
	}.problem()
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v after %d iters", res.Status, res.Iterations)
	}
	vecApprox(t, res.X, []float64{1, 1}, 1e-6, "x")
	// Active constraint: multiplier z = 2 (from x − 3 + z·1 = 0).
	if math.Abs(res.InDuals[0]-2) > 1e-5 {
		t.Errorf("inequality dual = %v, want 2", res.InDuals[0])
	}
}

func TestInactiveInequality(t *testing.T) {
	// Same objective but constraint x₁+x₂ ≤ 100 is slack → unconstrained optimum (3,3).
	p := denseQP{
		H:   mat.Identity(2),
		C:   []float64{-3, -3},
		Ain: mat.FromRows([][]float64{{1, 1}}),
		Bin: []float64{100},
	}.problem()
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vecApprox(t, res.X, []float64{3, 3}, 1e-6, "x")
	if res.InDuals[0] > 1e-5 {
		t.Errorf("slack constraint has dual %v, want ~0", res.InDuals[0])
	}
}

func TestBoxConstrainedQP(t *testing.T) {
	// min ½xᵀx − 10·1ᵀx s.t. 0 ≤ x ≤ 1 (4 vars) → all at upper bound 1.
	n := 4
	ain := mat.NewDense(2*n, n)
	bin := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		ain.Set(i, i, 1) // x_i ≤ 1
		bin[i] = 1
		ain.Set(n+i, i, -1) // −x_i ≤ 0
		bin[n+i] = 0
	}
	p := denseQP{
		H:   mat.Identity(n),
		C:   filled(n, -10),
		Ain: ain,
		Bin: bin,
	}.problem()
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vecApprox(t, res.X, filled(n, 1), 1e-6, "x")
}

func TestMixedEqualityInequality(t *testing.T) {
	// min ½(x₁² + x₂² + x₃²)  s.t.  x₁ + x₂ + x₃ = 3,  x₁ ≤ 0.5.
	// Without the inequality: x = (1,1,1). With x₁ ≤ 0.5: x = (0.5, 1.25, 1.25).
	p := denseQP{
		H:   mat.Identity(3),
		C:   []float64{0, 0, 0},
		Aeq: mat.FromRows([][]float64{{1, 1, 1}}),
		Beq: []float64{3},
		Ain: mat.FromRows([][]float64{{1, 0, 0}}),
		Bin: []float64{0.5},
	}.problem()
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vecApprox(t, res.X, []float64{0.5, 1.25, 1.25}, 1e-6, "x")
}

func TestSemidefiniteHessian(t *testing.T) {
	// H has a zero eigenvalue along (1,−1); the constraint set still pins
	// the solution: min ½(x₁+x₂)² − (x₁+x₂) s.t. x₁ − x₂ = 0, 0 ≤ x.
	h := mat.FromRows([][]float64{{1, 1}, {1, 1}})
	p := denseQP{
		H:   h,
		C:   []float64{-1, -1},
		Aeq: mat.FromRows([][]float64{{1, -1}}),
		Beq: []float64{0},
		Ain: mat.FromRows([][]float64{{-1, 0}, {0, -1}}),
		Bin: []float64{0, 0},
	}.problem()
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Optimum: x₁ = x₂ = t with minimized 2t² − 2t → t = ½.
	vecApprox(t, res.X, []float64{0.5, 0.5}, 1e-5, "x")
}

func TestKKTResidualsRandomProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(8)
		meq := rng.Intn(n) // fewer equalities than variables
		min := 1 + rng.Intn(2*n)

		g := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g.Set(i, j, rng.NormFloat64())
			}
		}
		h := g.T().Mul(g)
		for i := 0; i < n; i++ {
			h.Add(i, i, 0.5)
		}
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		// Build constraints guaranteed feasible at a random point x*.
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		var aeq *mat.Dense
		var beq []float64
		if meq > 0 {
			aeq = mat.NewDense(meq, n)
			for i := 0; i < meq; i++ {
				for j := 0; j < n; j++ {
					aeq.Set(i, j, rng.NormFloat64())
				}
			}
			beq = aeq.MulVec(xs)
		}
		ain := mat.NewDense(min, n)
		for i := 0; i < min; i++ {
			for j := 0; j < n; j++ {
				ain.Set(i, j, rng.NormFloat64())
			}
		}
		bin := ain.MulVec(xs)
		for i := range bin {
			bin[i] += rng.Float64() // strictly feasible margin
		}

		p := denseQP{H: h, C: c, Aeq: aeq, Beq: beq, Ain: ain, Bin: bin}.problem()
		res, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Status != Optimal {
			t.Errorf("trial %d: status %v (iters %d)", trial, res.Status, res.Iterations)
			continue
		}
		// KKT checks.
		// Stationarity.
		grad := h.MulVec(res.X)
		mat.Axpy(1, c, grad)
		if aeq != nil {
			mat.Axpy(1, mulVecT(aeq, res.EqDuals), grad)
		}
		mat.Axpy(1, mulVecT(ain, res.InDuals), grad)
		if mat.NormInf(grad) > 1e-5*(1+mat.NormInf(c)) {
			t.Errorf("trial %d: stationarity residual %v", trial, mat.NormInf(grad))
		}
		// Primal feasibility.
		if aeq != nil {
			r := aeq.MulVec(res.X)
			mat.Axpy(-1, beq, r)
			if mat.NormInf(r) > 1e-5 {
				t.Errorf("trial %d: equality violation %v", trial, mat.NormInf(r))
			}
		}
		av := ain.MulVec(res.X)
		for i := range av {
			if av[i] > bin[i]+1e-5 {
				t.Errorf("trial %d: inequality %d violated by %v", trial, i, av[i]-bin[i])
			}
			if res.InDuals[i] < -1e-9 {
				t.Errorf("trial %d: negative dual %v", trial, res.InDuals[i])
			}
			// Complementarity.
			if comp := res.InDuals[i] * (bin[i] - av[i]); math.Abs(comp) > 1e-4*(1+math.Abs(bin[i])) {
				t.Errorf("trial %d: complementarity %v", trial, comp)
			}
		}
	}
}

func TestWarmishLargeProblem(t *testing.T) {
	// A 60-variable separable box QP, similar in size to one MPC step.
	n := 60
	h := mat.Identity(n)
	// c chosen so no constraint is degenerate (active with zero dual):
	// unconstrained optimum is i%7 + 1.5, so the x ≤ 2 bound is either
	// strictly slack (i%7 == 0) or active with dual ≥ 0.5.
	c := make([]float64, n)
	for i := range c {
		c[i] = -float64(i%7) - 1.5
	}
	ain := mat.NewDense(2*n, n)
	bin := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		ain.Set(i, i, 1)
		bin[i] = 2
		ain.Set(n+i, i, -1)
		bin[n+i] = 0
	}
	res, err := Solve(denseQP{H: h, C: c, Ain: ain, Bin: bin}.problem(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	for i, x := range res.X {
		want := math.Min(2, float64(i%7)+1.5)
		if math.Abs(x-want) > 1e-5 {
			t.Errorf("x[%d] = %v, want %v", i, x, want)
		}
	}
	if res.Iterations > 40 {
		t.Errorf("took %d iterations; interior point should converge in ~10", res.Iterations)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Solve(&Problem{}, Options{}); err == nil {
		t.Error("nil Hessian accepted")
	}
	if _, err := Solve(denseQP{H: mat.Identity(2), C: []float64{1}}.problem(), Options{}); err == nil {
		t.Error("mismatched C accepted")
	}
	if _, err := Solve(denseQP{
		H: mat.Identity(2), C: []float64{0, 0},
		Ain: mat.FromRows([][]float64{{1, 1}}), Bin: []float64{1, 2},
	}.problem(), Options{}); err == nil {
		t.Error("mismatched Bin accepted")
	}
	if _, err := Solve(denseQP{
		H: mat.Identity(2), C: []float64{0, math.NaN()},
	}.problem(), Options{}); err == nil {
		t.Error("NaN cost accepted")
	}
	if _, err := Solve(denseQP{H: mat.Identity(1), C: []float64{0}, Beq: []float64{1}}.problem(), Options{}); err == nil {
		t.Error("Beq without Aeq accepted")
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || MaxIterations.String() != "max-iterations" ||
		NumericalFailure.String() != "numerical-failure" {
		t.Error("Status.String values wrong")
	}
	if Status(99).String() == "" {
		t.Error("unknown status renders empty")
	}
}

// TestCyclingDetector pins the step-length cycle test on residual
// histories (newest first): the period-4 orbit of a cycling solve is
// caught, while converging, stalled and blown-up iterations are not.
func TestCyclingDetector(t *testing.T) {
	orbit := [][2]float64{{2.166e-3, 1.075e-4}, {1.185e-2, 5.640e-4}, {2.430e-3, 1.183e-4}, {1.218e-2, 5.934e-4}}
	var h [2 * cycleMaxPeriod][2]float64
	for i := range h {
		h[i] = orbit[i%4]
	}
	if !cycling(&h) {
		t.Error("period-4 orbit not detected")
	}
	for i := range h {
		h[i] = [2]float64{1e-3 * math.Pow(10, float64(i)), 1e-4 * math.Pow(10, float64(i))}
	}
	if cycling(&h) {
		t.Error("converging iteration reported as a cycle")
	}
	for i := range h {
		h[i] = [2]float64{1.219e25, 1.745e8}
	}
	if cycling(&h) {
		t.Error("stalled iteration reported as a cycle")
	}
}
