package core

import (
	"testing"

	"evclimate/internal/control"
)

func steadyCtx() control.StepContext {
	return control.StepContext{
		Dt: 5, CabinTempC: 25, OutsideC: 35, SolarW: 400,
		MotorPowerW: 10e3, SoC: 85, TargetC: 24,
		ComfortLowC: 21, ComfortHighC: 27,
	}
}

// Steady-state Decide runs on the controller's solver arena: the SQP
// workspace, horizon buffers, warm-start vector and cost scratch are all
// allocated once in New. Before the arena existed a single Decide
// performed ~24,000 allocations; the pin below leaves slack only for
// incidental runtime noise, far beyond the required ≥90% reduction.
func TestDecideSteadyStateAllocationFree(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := steadyCtx()
	for i := 0; i < 5; i++ { // reach warm-started steady state
		c.Decide(ctx)
	}
	allocs := testing.AllocsPerRun(20, func() { c.Decide(ctx) })
	if allocs > 8 {
		t.Fatalf("steady-state Decide allocates %v objects/op, want ≤ 8 (baseline before the solver arena: ~24000)", allocs)
	}
}

// The warm start must survive workspace reuse: res.X aliases the SQP
// workspace, so Decide keeps its own copy. A corrupted copy would show
// up as a different second-step decision.
func TestWarmStartSurvivesWorkspaceReuse(t *testing.T) {
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := steadyCtx()
	for i := 0; i < 3; i++ {
		ina := a.Decide(ctx)
		inb := b.Decide(ctx)
		if ina != inb {
			t.Fatalf("step %d: two identical controllers diverged: %+v vs %+v", i, ina, inb)
		}
	}
	// Reset drops the warm start; the next decision must match a fresh
	// controller's first decision.
	a.Reset()
	fresh, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.Decide(ctx), fresh.Decide(ctx); got != want {
		t.Fatalf("post-Reset decision %+v differs from fresh controller's %+v", got, want)
	}
	if !a.havePrev {
		t.Fatal("no warm start kept after a successful post-Reset Decide")
	}
}
