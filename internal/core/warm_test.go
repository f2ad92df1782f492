package core

import (
	"math"
	"testing"

	"evclimate/internal/cabin"
	"evclimate/internal/sqp"
)

// A decide whose previous plan leans on a comfort slack starts from the
// scaled-identity seed: the deep-cold soak's plans cannot meet the band,
// so the second decide is bit-identical to one made from the same warm
// start through a fresh solver workspace, and no decide is carried.
func TestSlackActiveDecideStartsFromSeed(t *testing.T) {
	a := newController(t, nil)
	b := newController(t, nil)
	ctx := deepColdCtx()
	a.Decide(ctx)
	b.Decide(ctx)
	if a.comfortMet(a.prevZ) {
		t.Fatal("deep-cold plan meets the comfort band; the fixture no longer exercises an active slack")
	}
	b.sqpWork = sqp.NewWorkspace()
	ina, inb := a.Decide(ctx), b.Decide(ctx)
	if ina != inb || a.LastSolve() != b.LastSolve() || !bitsEqual(a.prevZ, b.prevZ) {
		t.Fatalf("decide after a slack-active plan differs from the fresh seed's: %+v %+v vs %+v %+v",
			ina, a.LastSolve(), inb, b.LastSolve())
	}
	if n := a.Stats().WarmHessians; n != 0 {
		t.Fatalf("WarmHessians = %d after slack-active plans, want 0", n)
	}
}

// Once its plans meet the comfort band, every decide of a hot pull-down
// starts from the previous plan's shifted BFGS blocks. Over the
// closed-loop pull-down from 26.5 °C those decides take fewer SQP
// iterations than the same decides from the fresh seed (99 against 160
// over steps 5–19), and a controller restored from a snapshot makes each
// of them bit for bit.
func TestSteadyDecideCarriesCurvature(t *testing.T) {
	m, err := cabin.New(cabin.Default())
	if err != nil {
		t.Fatal(err)
	}
	a := newController(t, nil)
	tz := 26.5
	carried, seededIters := 0, 0
	for i := 0; i < 20; i++ {
		ctx := hotCtx(tz)
		ctx.Time = float64(i) * ctx.Dt
		snap, err := a.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		seeded, restored := newController(t, nil), newController(t, nil)
		for _, c := range []*Controller{seeded, restored} {
			if err := c.RestoreState(snap); err != nil {
				t.Fatal(err)
			}
		}
		seeded.sqpWork = sqp.NewWorkspace()

		warm := a.Stats().WarmHessians
		in := a.Decide(ctx)
		if got, want := a.Stats().WarmHessians-warm, min(i, 1); got != want {
			t.Fatalf("step %d: %d carried decides, want %d", i, got, want)
		}
		if got := restored.Decide(ctx); got != in || restored.LastSolve() != a.LastSolve() || !bitsEqual(restored.prevZ, a.prevZ) {
			t.Fatalf("step %d: restored controller decided %+v %+v, original %+v %+v", i, got, restored.LastSolve(), in, a.LastSolve())
		}
		seeded.Decide(ctx)
		if i >= 5 {
			carried += a.LastSolve().Iterations
			seededIters += seeded.LastSolve().Iterations
		}
		tz += m.CabinDerivative(tz, in, ctx.OutsideC, ctx.SolarW) * ctx.Dt
	}
	if carried >= seededIters {
		t.Errorf("carried decides took %d SQP iterations over steps 5–19, the fresh seed %d: want fewer", carried, seededIters)
	}
}

func bitsEqual(a, b []float64) bool {
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
