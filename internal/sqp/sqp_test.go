package sqp

import (
	"errors"
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

// onesJac is the Jacobian of one row x₀ + … + x_{n−1}.
func onesJac(x []float64, jac *qp.StageMatrix) {
	for j := range x {
		jac.Set(0, j, 1)
	}
}

// circleJac is the Jacobian of one row ‖x‖² − r².
func circleJac(x []float64, jac *qp.StageMatrix) {
	for j, v := range x {
		jac.Set(0, j, 2*v)
	}
}

func TestUnconstrainedQuadratic(t *testing.T) {
	// min (x−1)² + (y+2)².
	p := &Problem{
		N: 2,
		Objective: func(x []float64) float64 {
			return (x[0]-1)*(x[0]-1) + (x[1]+2)*(x[1]+2)
		},
		Gradient: func(x, g []float64) { g[0], g[1] = 2*(x[0]-1), 2*(x[1]+2) },
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
	res, err := Solve(rosenbrockProblem(), []float64{-1.2, 1}, Options{MaxIter: 300})
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
		Gradient:  func(x, g []float64) { g[0], g[1] = 2*x[0], 2*x[1] },
		MEq:       1,
		Eq:        func(x, out []float64) { out[0] = x[0] + x[1] - 2 },
		EqJac:     onesJac,
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
		Gradient:  func(x, g []float64) { g[0], g[1] = 1, 1 },
		MEq:       1,
		Eq:        func(x, out []float64) { out[0] = x[0]*x[0] + x[1]*x[1] - 2 },
		EqJac:     circleJac,
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
		Gradient: func(x, g []float64) { g[0], g[1] = 2*(x[0]-3), 2*(x[1]-3) },
		MIneq:    1,
		Ineq:     func(x, out []float64) { out[0] = x[0] + x[1] - 2 },
		IneqJac:  onesJac,
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
		Gradient: func(x, g []float64) { g[0] = 2 * (x[0] - 1) },
		MIneq:    1,
		Ineq:     func(x, out []float64) { out[0] = x[0] - 100 },
		IneqJac:  onesJac,
	}
	res, err := Solve(p, []float64{50}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkVec(t, res.X, []float64{1}, 1e-5, "x")
}

func TestHS71StyleProblem(t *testing.T) {
	// A bilinear problem of the kind the HVAC model produces (hs71Problem).
	p := hs71Problem()
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
		Gradient:  func(x, g []float64) { g[0], g[1] = 2*x[0], 2*x[1] },
		MIneq:     2,
		Ineq: func(x, out []float64) {
			out[0] = 1 - x[0] // x₀ ≥ 1
			out[1] = 1 - x[1] // x₁ ≥ 1
		},
		IneqJac: func(_ []float64, jac *qp.StageMatrix) {
			jac.Set(0, 0, -1)
			jac.Set(1, 1, -1)
		},
	}
	res, err := Solve(p, []float64{-10, -10}, Options{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	checkVec(t, res.X, []float64{1, 1}, 1e-4, "x")
}

func TestMaxIterationsReported(t *testing.T) {
	res, err := Solve(rosenbrockProblem(), []float64{-1.2, 1}, Options{MaxIter: 2})
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
	obj := func([]float64) float64 { return 0 }
	grad := func(_, g []float64) {}
	zero := func([]float64, []float64) {}
	jac := func([]float64, *qp.StageMatrix) {}
	for _, c := range []struct {
		name string
		p    *Problem
		x0   []float64
	}{
		{"N=0", &Problem{N: 0}, nil},
		{"short x0", &Problem{N: 2, Objective: obj, Gradient: grad}, []float64{1}},
		{"no Gradient", &Problem{N: 1, Objective: obj}, []float64{0}},
		{"MEq without Eq", &Problem{N: 1, Objective: obj, Gradient: grad, MEq: 1, EqJac: jac}, []float64{0}},
		{"MEq without EqJac", &Problem{N: 1, Objective: obj, Gradient: grad, MEq: 1, Eq: zero}, []float64{0}},
		{"MIneq without Ineq", &Problem{N: 1, Objective: obj, Gradient: grad, MIneq: 1, IneqJac: jac}, []float64{0}},
		{"MIneq without IneqJac", &Problem{N: 1, Objective: obj, Gradient: grad, MIneq: 1, Ineq: zero}, []float64{0}},
		{"equality rows not divisible into stages", &Problem{N: 4, Objective: obj, Gradient: grad, MEq: 3, Eq: zero, EqJac: jac, Stages: 2}, make([]float64, 4)},
		{"variables not divisible into stages", &Problem{N: 3, Objective: obj, Gradient: grad, Stages: 2}, make([]float64, 3)},
		{"state wider than its stage", &Problem{N: 4, Objective: obj, Gradient: grad, Stages: 2, NX: 3}, make([]float64, 4)},
	} {
		if _, err := Solve(c.p, c.x0, Options{}); !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s: err %v, want ErrBadProblem", c.name, err)
		}
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
		Gradient: func(x, g []float64) {
			for k := 1; k < ns; k++ {
				g[idxT(k)] = 2 * (x[idxT(k)] - 5)
			}
			for k := 0; k < nu; k++ {
				g[idxU(k)] = 0.02 * x[idxU(k)]
			}
		},
		MEq: ns, // 3 dynamics constraints + initial condition
		Eq: func(x, out []float64) {
			out[0] = x[idxT(0)] - 0 // T0 = 0
			for k := 0; k < nu; k++ {
				out[k+1] = x[idxT(k+1)] - x[idxT(k)] - x[idxU(k)]*(10-x[idxT(k)])*0.5
			}
		},
		EqJac: func(x []float64, jac *qp.StageMatrix) {
			jac.Set(0, idxT(0), 1)
			for k := 0; k < nu; k++ {
				jac.Set(k+1, idxT(k+1), 1)
				jac.Set(k+1, idxT(k), -1+0.5*x[idxU(k)])
				jac.Set(k+1, idxU(k), -0.5*(10-x[idxT(k)]))
			}
		},
		MIneq: 2 * nu, // 0 ≤ u ≤ 1
		Ineq: func(x, out []float64) {
			for k := 0; k < nu; k++ {
				out[2*k] = -x[idxU(k)]
				out[2*k+1] = x[idxU(k)] - 1
			}
		},
		IneqJac: func(x []float64, jac *qp.StageMatrix) {
			for k := 0; k < nu; k++ {
				jac.Set(2*k, idxU(k), -1)
				jac.Set(2*k+1, idxU(k), 1)
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
			Gradient: func(x, g []float64) {
				g[0], g[1], g[2] = 2*(x[0]-1), 4*(x[1]+2), x[2]
			},
			MIneq:   1,
			Ineq:    func(x, out []float64) { out[0] = -x[2] }, // x₂ ≥ 0
			IneqJac: func(_ []float64, jac *qp.StageMatrix) { jac.Set(0, 2, -1) },
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
		Gradient:  func(x, g []float64) { g[0], g[1] = 2*x[0], 2*x[1] },
		MEq:       1,
		Eq:        func(x, out []float64) { out[0] = x[0] + x[1] - 4 },
		EqJac:     onesJac,
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

// TestSecondOrderCorrectionMaratos is Nocedal & Wright's §15.5 example
// of the Maratos effect: min 2(x₁² + x₂² − 1) − x₁ on the unit circle,
// solution (1, 0). From a point on the circle the unit SQP step leaves
// it, and the ℓ₁ merit rejects a step that would converge superlinearly.
// Restoring the trial point radially onto the circle repairs the
// constraint's curvature error, so the unit steps are taken.
func TestSecondOrderCorrectionMaratos(t *testing.T) {
	mk := func(restore bool) *Problem {
		p := &Problem{
			N:         2,
			Objective: func(x []float64) float64 { return 2*(x[0]*x[0]+x[1]*x[1]-1) - x[0] },
			Gradient:  func(x, g []float64) { g[0], g[1] = 4*x[0]-1, 4*x[1] },
			MEq:       1,
			Eq:        func(x, out []float64) { out[0] = x[0]*x[0] + x[1]*x[1] - 1 },
			EqJac:     circleJac,
		}
		if restore {
			p.Restore = func(x []float64) {
				r := math.Hypot(x[0], x[1])
				x[0], x[1] = x[0]/r, x[1]/r
			}
		}
		return p
	}
	x0 := []float64{math.Cos(0.3), math.Sin(0.3)}
	plain, err := Solve(mk(false), x0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	soc, err := Solve(mk(true), x0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{plain, soc} {
		if r.Status != Converged {
			t.Fatalf("status %v after %d iterations", r.Status, r.Iterations)
		}
		checkVec(t, r.X, []float64{1, 0}, 1e-5, "x")
	}
	if soc.Corrections == 0 || plain.Corrections != 0 {
		t.Errorf("corrections: %d with Restore, %d without; want > 0 and 0", soc.Corrections, plain.Corrections)
	}
	if soc.Iterations >= plain.Iterations {
		t.Errorf("%d iterations with Restore, %d without; want fewer", soc.Iterations, plain.Iterations)
	}
	t.Logf("iterations: %d plain, %d corrected (%d corrections)", plain.Iterations, soc.Iterations, soc.Corrections)
}
