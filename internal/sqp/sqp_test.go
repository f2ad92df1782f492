package sqp

import (
	"math"
	"testing"

	"evclimate/internal/qp"
)

func checkVec(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Errorf("%s[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestUnconstrainedQuadratic(t *testing.T) {
	// min (x−1)² + (y+2)².
	p := &Problem{
		N: 2,
		Objective: func(x []float64) float64 {
			return (x[0]-1)*(x[0]-1) + (x[1]+2)*(x[1]+2)
		},
	}
	res, err := Solve(p, []float64{5, 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Converged {
		t.Fatalf("status %v after %d iters", res.Status, res.Iterations)
	}
	checkVec(t, res.X, []float64{1, -2}, 1e-5, "x")
}

func TestRosenbrock(t *testing.T) {
	// The classic banana function; tests the BFGS machinery.
	p := &Problem{
		N: 2,
		Objective: func(x []float64) float64 {
			a := 1 - x[0]
			b := x[1] - x[0]*x[0]
			return a*a + 100*b*b
		},
	}
	res, err := Solve(p, []float64{-1.2, 1}, Options{MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	checkVec(t, res.X, []float64{1, 1}, 1e-3, "x")
}

func TestEqualityConstrained(t *testing.T) {
	// min x² + y² s.t. x + y = 2 → (1, 1).
	p := &Problem{
		N:         2,
		Objective: func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		MEq:       1,
		Eq:        func(x, out []float64) { out[0] = x[0] + x[1] - 2 },
	}
	res, err := Solve(p, []float64{3, -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Converged {
		t.Fatalf("status %v", res.Status)
	}
	checkVec(t, res.X, []float64{1, 1}, 1e-5, "x")
	if res.MaxViolation > 1e-6 {
		t.Errorf("violation %v", res.MaxViolation)
	}
}

func TestNonlinearEquality(t *testing.T) {
	// min x + y s.t. x² + y² = 2 → (−1, −1).
	p := &Problem{
		N:         2,
		Objective: func(x []float64) float64 { return x[0] + x[1] },
		MEq:       1,
		Eq:        func(x, out []float64) { out[0] = x[0]*x[0] + x[1]*x[1] - 2 },
	}
	res, err := Solve(p, []float64{1.5, 0.5}, Options{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	checkVec(t, res.X, []float64{-1, -1}, 1e-4, "x")
}

func TestInequalityConstrained(t *testing.T) {
	// min (x−3)² + (y−3)² s.t. x + y ≤ 2 → (1, 1).
	p := &Problem{
		N: 2,
		Objective: func(x []float64) float64 {
			return (x[0]-3)*(x[0]-3) + (x[1]-3)*(x[1]-3)
		},
		MIneq: 1,
		Ineq:  func(x, out []float64) { out[0] = x[0] + x[1] - 2 },
	}
	res, err := Solve(p, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkVec(t, res.X, []float64{1, 1}, 1e-4, "x")
	if res.InDuals[0] < 0 {
		t.Errorf("negative inequality dual %v", res.InDuals[0])
	}
}

func TestInactiveInequality(t *testing.T) {
	// Constraint never binds: behaves like the unconstrained problem.
	p := &Problem{
		N: 1,
		Objective: func(x []float64) float64 {
			return (x[0] - 1) * (x[0] - 1)
		},
		MIneq: 1,
		Ineq:  func(x, out []float64) { out[0] = x[0] - 100 },
	}
	res, err := Solve(p, []float64{50}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkVec(t, res.X, []float64{1}, 1e-5, "x")
}

func TestHS71StyleProblem(t *testing.T) {
	// A bilinear problem of the kind the HVAC model produces:
	// min x₁x₄(x₁+x₂+x₃) + x₃
	// s.t. x₁x₂x₃x₄ ≥ 25  (as 25 − Πx ≤ 0)
	//      x₁²+x₂²+x₃²+x₄² = 40, 1 ≤ x ≤ 5.
	// Known optimum ≈ (1, 4.743, 3.821, 1.379), f* ≈ 17.014.
	p := &Problem{
		N: 4,
		Objective: func(x []float64) float64 {
			return x[0]*x[3]*(x[0]+x[1]+x[2]) + x[2]
		},
		MEq: 1,
		Eq: func(x, out []float64) {
			out[0] = x[0]*x[0] + x[1]*x[1] + x[2]*x[2] + x[3]*x[3] - 40
		},
		MIneq: 9,
		Ineq: func(x, out []float64) {
			out[0] = 25 - x[0]*x[1]*x[2]*x[3]
			for i := 0; i < 4; i++ {
				out[1+i] = 1 - x[i] // x ≥ 1
				out[5+i] = x[i] - 5 // x ≤ 5
			}
		},
	}
	res, err := Solve(p, []float64{1, 5, 5, 1}, Options{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.F-17.014) > 0.05 {
		t.Errorf("f = %v, want ≈ 17.014 (status %v, viol %v)", res.F, res.Status, res.MaxViolation)
	}
	if res.MaxViolation > 1e-4 {
		t.Errorf("violation %v", res.MaxViolation)
	}
}

func TestAnalyticGradientMatchesFD(t *testing.T) {
	// Same problem solved with and without analytic derivatives should
	// agree.
	obj := func(x []float64) float64 { return x[0]*x[0] + 2*x[1]*x[1] + x[0]*x[1] - x[0] }
	grad := func(x, g []float64) {
		g[0] = 2*x[0] + x[1] - 1
		g[1] = 4*x[1] + x[0]
	}
	pFD := &Problem{N: 2, Objective: obj}
	pAn := &Problem{N: 2, Objective: obj, Gradient: grad}
	rFD, err := Solve(pFD, []float64{1, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rAn, err := Solve(pAn, []float64{1, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkVec(t, rAn.X, rFD.X, 1e-5, "x(analytic) vs x(fd)")
}

func TestAnalyticJacobians(t *testing.T) {
	p := &Problem{
		N:         2,
		Objective: func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		Gradient:  func(x, g []float64) { g[0], g[1] = 2*x[0], 2*x[1] },
		MEq:       1,
		Eq:        func(x, out []float64) { out[0] = x[0] + 2*x[1] - 5 },
		EqJac: func(x []float64, jac *qp.StageMatrix) {
			jac.Set(0, 0, 1)
			jac.Set(0, 1, 2)
		},
		MIneq: 1,
		Ineq:  func(x, out []float64) { out[0] = -x[0] },
		IneqJac: func(x []float64, jac *qp.StageMatrix) {
			jac.Set(0, 0, -1)
			jac.Set(0, 1, 0)
		},
	}
	res, err := Solve(p, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// min x²+y² on x+2y=5 → (1, 2); x ≥ 0 inactive.
	checkVec(t, res.X, []float64{1, 2}, 1e-5, "x")
}

func TestInfeasibleStartRecovers(t *testing.T) {
	// Start far outside the feasible set; the linearized constraints are
	// exact, so the first step lands on them and the merit function
	// accepts it.
	p := &Problem{
		N:         2,
		Objective: func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		MIneq:     2,
		Ineq: func(x, out []float64) {
			out[0] = 1 - x[0] // x₀ ≥ 1
			out[1] = 1 - x[1] // x₁ ≥ 1
		},
	}
	res, err := Solve(p, []float64{-10, -10}, Options{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	checkVec(t, res.X, []float64{1, 1}, 1e-4, "x")
}

func TestMaxIterationsReported(t *testing.T) {
	p := &Problem{
		N: 2,
		Objective: func(x []float64) float64 {
			a := 1 - x[0]
			b := x[1] - x[0]*x[0]
			return a*a + 100*b*b
		},
	}
	res, err := Solve(p, []float64{-1.2, 1}, Options{MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Converged {
		t.Error("cannot converge on Rosenbrock in 2 iterations")
	}
	if res.Iterations != 2 {
		t.Errorf("iterations = %d, want 2", res.Iterations)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Solve(&Problem{N: 0}, nil, Options{}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Solve(&Problem{N: 2, Objective: func([]float64) float64 { return 0 }}, []float64{1}, Options{}); err == nil {
		t.Error("short x0 accepted")
	}
	if _, err := Solve(&Problem{N: 1, Objective: func([]float64) float64 { return 0 }, MEq: 1}, []float64{0}, Options{}); err == nil {
		t.Error("MEq without Eq accepted")
	}
	if _, err := Solve(&Problem{N: 1, Objective: func([]float64) float64 { return 0 }, MIneq: 1}, []float64{0}, Options{}); err == nil {
		t.Error("MIneq without Ineq accepted")
	}
	zero := func([]float64, []float64) {}
	if _, err := Solve(&Problem{N: 4, Objective: func([]float64) float64 { return 0 }, MEq: 3, Eq: zero, Stages: 2}, make([]float64, 4), Options{}); err == nil {
		t.Error("equality rows not divisible into stages accepted")
	}
	if _, err := Solve(&Problem{N: 3, Objective: func([]float64) float64 { return 0 }, Stages: 2}, make([]float64, 3), Options{}); err == nil {
		t.Error("variables not divisible into stages accepted")
	}
	if _, err := Solve(&Problem{N: 4, Objective: func([]float64) float64 { return 0 }, Stages: 2, NX: 3}, make([]float64, 4), Options{}); err == nil {
		t.Error("state wider than its stage accepted")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Converged: "converged", MaxIterations: "max-iterations",
		Stalled: "stalled", Failed: "failed",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestBilinearMPCShape exercises a miniature version of the real MPC step:
// bilinear dynamics constraint over a 3-step horizon with box bounds.
func TestBilinearMPCShape(t *testing.T) {
	// States T0..T3, controls u0..u2 (heat flow), bilinear-ish dynamics
	// T_{k+1} = T_k + u_k·(Ts − T_k)·dt with Ts = 10, dt = 0.5.
	// Objective: track T=5 while penalizing u.
	const (
		ns = 4
		nu = 3
	)
	idxT := func(k int) int { return k }
	idxU := func(k int) int { return ns + k }
	p := &Problem{
		N: ns + nu,
		Objective: func(x []float64) float64 {
			var c float64
			for k := 1; k < ns; k++ {
				d := x[idxT(k)] - 5
				c += d * d
			}
			for k := 0; k < nu; k++ {
				c += 0.01 * x[idxU(k)] * x[idxU(k)]
			}
			return c
		},
		MEq: ns, // 3 dynamics constraints + initial condition
		Eq: func(x, out []float64) {
			out[0] = x[idxT(0)] - 0 // T0 = 0
			for k := 0; k < nu; k++ {
				out[k+1] = x[idxT(k+1)] - x[idxT(k)] - x[idxU(k)]*(10-x[idxT(k)])*0.5
			}
		},
		MIneq: 2 * nu, // 0 ≤ u ≤ 1
		Ineq: func(x, out []float64) {
			for k := 0; k < nu; k++ {
				out[2*k] = -x[idxU(k)]
				out[2*k+1] = x[idxU(k)] - 1
			}
		},
	}
	x0 := make([]float64, ns+nu)
	res, err := Solve(p, x0, Options{MaxIter: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxViolation > 1e-5 {
		t.Fatalf("violation %v (status %v)", res.MaxViolation, res.Status)
	}
	// The controller should drive the temperature toward 5 within bounds.
	if res.X[idxT(3)] < 3 {
		t.Errorf("final temperature %v too low; controls %v", res.X[idxT(3)], res.X[ns:])
	}
	for k := 0; k < nu; k++ {
		u := res.X[idxU(k)]
		if u < -1e-6 || u > 1+1e-6 {
			t.Errorf("control %d = %v outside [0, 1]", k, u)
		}
	}
}

func TestMinMeritDecreaseEarlyExit(t *testing.T) {
	// A well-conditioned problem: with the stagnation exit enabled the
	// solver stops earlier yet lands on (numerically) the same optimum.
	mk := func() *Problem {
		return &Problem{
			N: 3,
			Objective: func(x []float64) float64 {
				return (x[0]-1)*(x[0]-1) + 2*(x[1]+2)*(x[1]+2) + 0.5*x[2]*x[2]
			},
			MIneq: 1,
			Ineq:  func(x, out []float64) { out[0] = -x[2] }, // x₂ ≥ 0
		}
	}
	full, err := Solve(mk(), []float64{5, 5, 5}, Options{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	early, err := Solve(mk(), []float64{5, 5, 5}, Options{MaxIter: 200, MinMeritDecrease: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if early.Iterations > full.Iterations {
		t.Errorf("early exit used more iterations: %d vs %d", early.Iterations, full.Iterations)
	}
	if math.Abs(early.F-full.F) > 1e-3*(1+math.Abs(full.F)) {
		t.Errorf("early exit objective %v differs from full %v", early.F, full.F)
	}
	if early.Status != Converged {
		t.Errorf("early exit status = %v", early.Status)
	}
}

func TestMinMeritDecreaseRespectsFeasibility(t *testing.T) {
	// The stagnation exit must not fire while the iterate is infeasible:
	// start far outside and verify the final violation meets Tol anyway.
	p := &Problem{
		N:         2,
		Objective: func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		MEq:       1,
		Eq:        func(x, out []float64) { out[0] = x[0] + x[1] - 4 },
	}
	res, err := Solve(p, []float64{-20, -20}, Options{MaxIter: 300, MinMeritDecrease: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxViolation > 1e-4 {
		t.Errorf("stagnation exit left violation %v", res.MaxViolation)
	}
	checkVec(t, res.X, []float64{2, 2}, 1e-3, "x")
}
