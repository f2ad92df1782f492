package qp

import (
	"math/rand"
	"testing"
)

// Warm solves through the structured backend are allocation-free, same
// contract as the dense path (TestWarmSolveNoAllocs): every control step
// the MPC re-solves an identically-shaped stage QP on the same arena.
func TestStructuredWarmSolveNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p, _ := randStageQP(rng, 8, 0)
	ws := NewWorkspace()
	opt := Options{Work: ws}
	res, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Structured {
		t.Fatal("stage QP did not take the structured path")
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
		{"dense", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := randStageQP(rng, 6, 0)
			if !tc.structured {
				p.Stages = nil
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

// Transitioning between the structured path and the dense fallback (a
// band violation appears, then clears) is allocation-free end to end
// once both paths are sized — the demotion an MPC might hit mid-drive
// must not wake the allocator on the real-time path.
func TestStructuredFallbackTransitionNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	p, _ := randStageQP(rng, 6, 0)
	n, _ := p.H.Dims()
	ws := NewWorkspaceFor(p)
	opt := Options{Work: ws}

	poison := func(on bool) {
		v := 0.0
		if on {
			v = 1e-3
		}
		p.H.Set(0, n-1, v)
		p.H.Set(n-1, 0, v)
	}
	// Size both paths: one structured solve, one band-violating solve.
	for _, on := range []bool{false, true} {
		poison(on)
		res, err := Solve(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Structured == on {
			t.Fatalf("poison=%v: Structured=%v", on, res.Structured)
		}
	}
	flip := false
	allocs := testing.AllocsPerRun(50, func() {
		flip = !flip
		poison(flip)
		if _, err := Solve(p, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("structured↔dense transition allocates %v objects/op, want 0", allocs)
	}
}
