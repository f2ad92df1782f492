package sqp

import (
	"errors"
	"testing"
)

// rosenbrock needs dozens of iterations from a cold start — a good
// victim for budget cutoffs.
func rosenbrockProblem() *Problem {
	return &Problem{
		N: 2,
		Objective: func(x []float64) float64 {
			a := 1 - x[0]
			b := x[1] - x[0]*x[0]
			return a*a + 100*b*b
		},
		Gradient: func(x, g []float64) {
			b := x[1] - x[0]*x[0]
			g[0] = -2*(1-x[0]) - 400*x[0]*b
			g[1] = 200 * b
		},
	}
}

func TestHardIterCap(t *testing.T) {
	res, err := Solve(rosenbrockProblem(), []float64{-1.2, 1}, Options{HardIterCap: 3})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res == nil || res.Status != BudgetExceeded {
		t.Fatalf("res = %+v, want BudgetExceeded status", res)
	}
	if res.Iterations > 3 {
		t.Fatalf("ran %d iterations past the cap of 3", res.Iterations)
	}
	if len(res.X) != 2 {
		t.Fatal("budget-stopped result lost the iterate")
	}
}

func TestHardIterCapAboveMaxIterIsSilent(t *testing.T) {
	// MaxIter truncation stays a normal real-time stop, not a budget
	// error, when the hard cap is looser.
	res, err := Solve(rosenbrockProblem(), []float64{-1.2, 1}, Options{MaxIter: 2, HardIterCap: 50})
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if res.Status != MaxIterations {
		t.Fatalf("status = %v, want MaxIterations", res.Status)
	}
}

func TestBudgetExceededIterateStaysUsable(t *testing.T) {
	// A generous-but-binding cap: the returned iterate must be an
	// improvement over the start, not garbage.
	p := rosenbrockProblem()
	start := []float64{-1.2, 1}
	res, err := Solve(p, start, Options{HardIterCap: 10})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res.F >= p.Objective(start) {
		t.Fatalf("budget-truncated objective %v no better than start %v", res.F, p.Objective(start))
	}
}
