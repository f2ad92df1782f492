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
	p := randStageQP(rng, 8, 0)
	ws := NewWorkspace()
	opt := Options{Work: ws}
	res, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Demotions != 0 {
		t.Fatal("stage QP left the structured path")
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

// Transitioning between the structured path and the dense demotion
// target (a stage block turns indefinite, then recovers) is
// allocation-free end to end once both paths are sized — the demotion an
// MPC might hit mid-drive must not wake the allocator on the real-time
// path.
func TestStructuredFallbackTransitionNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	p := randStageQP(rng, 6, 0)
	ws := NewWorkspaceFor(p)
	opt := Options{Work: ws}

	h00 := p.H[0].At(0, 0)
	poison := func(on bool) {
		v := h00
		if on {
			v = -50
		}
		p.H[0].Set(0, 0, v)
	}
	// Size both paths: one structured solve, one demoting solve.
	for _, on := range []bool{false, true} {
		poison(on)
		res, _ := Solve(p, opt)
		if demoted := res.Demotions == 1; demoted != on {
			t.Fatalf("poison=%v: Demotions=%d", on, res.Demotions)
		}
	}
	flip := false
	allocs := testing.AllocsPerRun(50, func() {
		flip = !flip
		poison(flip)
		Solve(p, opt)
	})
	if allocs != 0 {
		t.Fatalf("structured↔dense transition allocates %v objects/op, want 0", allocs)
	}
}
