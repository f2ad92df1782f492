package core

import (
	"math"
	"slices"
	"testing"

	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/sqp"
)

// A co-scheduling decide whose previous plan leans on a comfort slack
// starts from the scaled-identity seed: the deep-cold soak's plans
// cannot meet the band, so the second decide is bit-identical to one
// made from the same warm start through a fresh solver workspace, and
// no decide is carried. The cabin-only MPC carries such decides.
func TestSlackActiveDecideStartsFromSeed(t *testing.T) {
	a := newController(t, func(cfg *Config) { *cfg = thermalTestConfig() })
	b := newController(t, func(cfg *Config) { *cfg = thermalTestConfig() })
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

// fullSolve is the reference a carried decide is judged against: the
// decide's problem solved from the same start as Decide's, the shifted
// plan and curvature restored to the measured state when the decide is
// carried, but under the full Config.SQPMaxIter cap a seeded decide
// gets. It returns the plan and its Eq. 21 cost; c must not be used for
// further decides.
func fullSolve(t *testing.T, c *Controller, ctx control.StepContext) ([]float64, float64) {
	t.Helper()
	h := c.buildHorizon(ctx)
	c.start(h)
	res, err := sqp.Solve(&c.prob, c.z0, c.sqpOptions(c.cfg.SQPMaxIter))
	if err != nil {
		t.Fatalf("full solve: %v", err)
	}
	return slices.Clone(res.X), c.objective(res.X, h)
}

// carriedCostGap is the relative amount by which the plan of c's last
// decide, priced through the prediction model, costs more than ref, the
// Eq. 21 cost of a full solve from the same state. Pricing the plan's
// inputs by a forward simulation keeps a plan that still violates its
// dynamics from looking cheaper than the moves it would make.
func carriedCostGap(c *Controller, ref float64) float64 {
	z := slices.Clone(c.prevZ)
	c.restore(z, &c.hor)
	return (c.objective(z, &c.hor) - ref) / math.Abs(ref)
}

// Every decide of a hot pull-down after the first is carried: a
// real-time iteration of at most carriedSQPIters SQP iterations from the
// previous plan's shifted plan, restored to the measured state, and its
// BFGS blocks. Over
// the closed-loop pull-down from 26.5 °C, a controller restored from a
// snapshot makes each decide bit for bit, and each carried plan's Eq. 21
// cost stays within costGapRel of a full solve from the same state. The
// measured worst gap is 5.1e-3 relative (step 12, with the cabin at
// 25.0 °C); the first ten steps stay below 4e-4.
func TestCarriedDecidesNearFullSolve(t *testing.T) {
	const costGapRel = 5e-2
	m, err := cabin.New(cabin.Default())
	if err != nil {
		t.Fatal(err)
	}
	a := newController(t, nil)
	tz := 26.5
	var worst float64
	for i := 0; i < 20; i++ {
		ctx := hotCtx(tz)
		ctx.Time = float64(i) * ctx.Dt
		snap, err := a.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		full, restored := newController(t, nil), newController(t, nil)
		for _, c := range []*Controller{full, restored} {
			if err := c.RestoreState(snap); err != nil {
				t.Fatal(err)
			}
		}

		warm := a.Stats().WarmHessians
		in := a.Decide(ctx)
		carried := a.Stats().WarmHessians - warm
		if want := min(i, 1); carried != want {
			t.Fatalf("step %d: %d carried decides, want %d", i, carried, want)
		}
		if it := a.LastSolve().Iterations; carried == 1 && it > carriedSQPIters {
			t.Fatalf("step %d: carried decide took %d SQP iterations, budget %d", i, it, carriedSQPIters)
		}
		if got := restored.Decide(ctx); got != in || restored.LastSolve() != a.LastSolve() || !bitsEqual(restored.prevZ, a.prevZ) {
			t.Fatalf("step %d: restored controller decided %+v %+v, original %+v %+v", i, got, restored.LastSolve(), in, a.LastSolve())
		}
		if carried == 1 {
			_, ref := fullSolve(t, full, ctx)
			gap := carriedCostGap(a, ref)
			if gap > costGapRel {
				t.Errorf("step %d: carried plan costs %.3g more than the full solve's (relative), bound %g", i, gap, costGapRel)
			}
			worst = max(worst, gap)
		}
		tz += m.CabinDerivative(tz, in, ctx.OutsideC, ctx.SolarW) * ctx.Dt
	}
	t.Logf("worst cost gap %.3g relative", worst)
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
