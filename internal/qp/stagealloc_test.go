package qp

import (
	"math/rand"
	"testing"
)

// Warm solves of a multi-stage problem are allocation-free, same
// contract as the one-stage solve (TestWarmSolveNoAllocs): every control step
// the MPC re-solves an identically-shaped stage QP on the same arena.
func TestStructuredWarmSolveNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := randStageQP(rng, 8, 0)
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
		t.Fatalf("warm structured qp.Solve allocates %v objects/op, want 0", allocs)
	}
}

// The very first solve through a NewWorkspaceFor-sized workspace is
// allocation-free: pre-sizing moves every buffer acquisition out of the
// solve path. (core.Controller does not pre-size this way; its first
// control step sizes the QP arena lazily.) AllocsPerRun burns its
// warm-up call on a fresh workspace too, so every measured call is a
// true first solve.
func TestNewWorkspaceForFirstSolveNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, tc := range []struct {
		name       string
		structured bool
	}{
		{"structured", true},
		{"dense", false}, // the one-stage form: one full-width block
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := randStageQP(rng, 6, 0)
			if !tc.structured {
				p = p.OneStage()
			}
			const runs = 50
			wss := make([]*Workspace, runs+1)
			for i := range wss {
				wss[i] = NewWorkspaceFor(p)
			}
			i := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := Solve(p, Options{Work: wss[i]}); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("first solve through NewWorkspaceFor allocates %v objects/op, want 0", allocs)
			}
		})
	}
}
