package sqp

import "testing"

// rosenbrock needs dozens of iterations from a cold start — a good
// victim for iteration cutoffs.
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

// TestHardIterCap: MaxIter is the solver's one hard iteration cap. A
// solve cut short by it stops after exactly that many iterations and
// keeps its iterate.
func TestHardIterCap(t *testing.T) {
	for _, n := range []int{2, 3} {
		res, _ := Solve(rosenbrockProblem(), []float64{-1.2, 1}, Options{MaxIter: n})
		if res == nil {
			t.Fatalf("MaxIter %d: no result", n)
		}
		if res.Iterations != n {
			t.Fatalf("MaxIter %d: ran %d iterations", n, res.Iterations)
		}
		if len(res.X) != 2 {
			t.Fatalf("MaxIter %d: truncated result lost the iterate", n)
		}
	}
}

// TestHardIterCapAboveMaxIterIsSilent: with the cap folded into MaxIter,
// running out of iterations is a normal real-time stop — Status
// MaxIterations and no error — never a failure.
func TestHardIterCapAboveMaxIterIsSilent(t *testing.T) {
	res, err := Solve(rosenbrockProblem(), []float64{-1.2, 1}, Options{MaxIter: 2})
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if res.Status != MaxIterations {
		t.Fatalf("status = %v, want MaxIterations", res.Status)
	}
}

// TestMaxIterIterateStaysUsable: under a generous-but-binding cap the
// returned iterate must be an improvement over the start, not garbage.
func TestMaxIterIterateStaysUsable(t *testing.T) {
	p := rosenbrockProblem()
	start := []float64{-1.2, 1}
	res, err := Solve(p, start, Options{MaxIter: 10})
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if res.Status != MaxIterations {
		t.Fatalf("status = %v, want the cap of 10 to bind", res.Status)
	}
	if res.F >= p.Objective(start) {
		t.Fatalf("truncated objective %v no better than start %v", res.F, p.Objective(start))
	}
}
