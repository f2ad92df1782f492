package qp

import (
	"math"
	"math/rand"
	"testing"

	"evclimate/internal/mat"
)

// randomQP builds a strictly convex QP with box inequalities and an
// optional equality row, feasible by construction.
func randomQP(rng *rand.Rand, n int, withEq bool) *Problem {
	g := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.Set(i, j, rng.NormFloat64())
		}
	}
	h := g.T().Mul(g)
	for i := 0; i < n; i++ {
		h.Add(i, i, 1)
	}
	c := make([]float64, n)
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	ain := mat.NewDense(2*n, n)
	bin := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		ain.Set(i, i, 1)
		bin[i] = 2 + rng.Float64()
		ain.Set(n+i, i, -1)
		bin[n+i] = 2 + rng.Float64()
	}
	p := denseQP{H: h, C: c, Ain: ain, Bin: bin}.problem()
	if withEq {
		row := make([]float64, n)
		for i := range row {
			row[i] = 1
		}
		p.Aeq = oneStage(mat.FromRows([][]float64{row}))
		p.Beq = []float64{0.5}
	}
	return p
}

// bits64 compares two vectors to the last bit.
func bits64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// A reused workspace must not change a single bit of any result relative
// to the allocating path, across problems of several shapes solved
// back-to-back through the same workspace.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ws := NewWorkspace()
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(12)
		p := randomQP(rng, n, trial%2 == 0)
		ref, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: allocating solve: %v", trial, err)
		}
		got, err := Solve(p, Options{Work: ws})
		if err != nil {
			t.Fatalf("trial %d: workspace solve: %v", trial, err)
		}
		if got.Status != ref.Status || got.Iterations != ref.Iterations {
			t.Fatalf("trial %d: status/iters (%v, %d) != (%v, %d)",
				trial, got.Status, got.Iterations, ref.Status, ref.Iterations)
		}
		if !bits64(got.X, ref.X) {
			t.Fatalf("trial %d: X differs bitwise", trial)
		}
		if !bits64(got.EqDuals, ref.EqDuals) || !bits64(got.InDuals, ref.InDuals) {
			t.Fatalf("trial %d: duals differ bitwise", trial)
		}
		if math.Float64bits(got.Objective) != math.Float64bits(ref.Objective) {
			t.Fatalf("trial %d: objective differs bitwise", trial)
		}
	}
}

// Warm solves through a sized workspace are allocation-free — the MPC
// re-solves an identically-shaped subproblem every SQP iteration.
func TestWarmSolveNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p := randomQP(rng, 20, true)
	ws := NewWorkspace()
	opt := Options{Work: ws}
	if _, err := Solve(p, opt); err != nil { // size the workspace
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Solve(p, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm qp.Solve allocates %v objects/op, want 0", allocs)
	}
}

// The equality-only shortcut shares the workspace's KKT factors.
func TestWarmEqualityOnlySolveNoAllocs(t *testing.T) {
	p := denseQP{
		H:   mat.Identity(4),
		C:   []float64{1, -1, 2, -2},
		Aeq: mat.FromRows([][]float64{{1, 1, 1, 1}}),
		Beq: []float64{1},
	}.problem()
	ws := NewWorkspace()
	opt := Options{Work: ws}
	if _, err := Solve(p, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Solve(p, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm equality-only qp.Solve allocates %v objects/op, want 0", allocs)
	}
}
