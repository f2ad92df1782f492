package control

import (
	"math"
	"testing"

	"evclimate/internal/cabin"
)

// batchCtxAt synthesizes a varied but deterministic per-lane, per-step
// context: alternating hot and cold excursions with drifting cabin
// temperature, so the batch walk exercises latching, release, and the
// derivative memory of the fuzzy lanes.
func batchCtxAt(lane, step int) StepContext {
	phase := float64(lane)*1.3 + float64(step)*0.7
	return StepContext{
		Time: float64(step), Dt: 1,
		CabinTempC: 24 + 8*math.Sin(phase),
		OutsideC:   20 + 15*math.Cos(phase/2),
		SolarW:     200 + 200*math.Sin(phase/3),
		TargetC:    24, ComfortLowC: 21, ComfortHighC: 27,
	}
}

// TestBatchMatchesScalarDecide walks on/off and fuzzy lane groups
// through a mixed hot/cold context sequence alongside independent scalar
// controllers and requires every decision bit-identical — the
// controller-level half of the lane-independence contract (the sim
// package pins the closed-loop version). The pointer kernels mutate the
// lane controllers' own state, so afterwards each lane's next scalar
// Decide continues the group's trajectory.
func TestBatchMatchesScalarDecide(t *testing.T) {
	const lanes, steps = 5, 40
	builders := map[string]func(m *cabin.Model) Controller{
		"onoff": func(m *cabin.Model) Controller { return NewOnOff(m) },
		"fuzzy": func(m *cabin.Model) Controller { return NewFuzzy(m) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			batchLanes := make([]Controller, lanes)
			scalar := make([]Controller, lanes)
			for i := range batchLanes {
				batchLanes[i] = build(model(t))
				scalar[i] = build(model(t))
			}
			b := Batch(batchLanes)
			if b.Lanes() != lanes {
				t.Fatalf("Lanes() = %d, want %d", b.Lanes(), lanes)
			}
			walkLanes(t, b, scalar, steps)
			for i := range scalar {
				ctx := batchCtxAt(i, steps)
				if got, want := b.Lane(i).Decide(ctx), scalar[i].Decide(ctx); got != want {
					t.Fatalf("lane %d: post-run scalar decision diverged: %+v != %+v", i, got, want)
				}
			}
		})
	}
}

// walkLanes steps the group and the scalar twins through steps
// synthesized contexts, requiring bit-identical decisions.
func walkLanes(t *testing.T, b *LaneGroup, scalar []Controller, steps int) {
	t.Helper()
	ctxs := make([]StepContext, len(scalar))
	out := make([]cabin.Inputs, len(scalar))
	for step := 0; step < steps; step++ {
		for i := range ctxs {
			ctxs[i] = batchCtxAt(i, step)
		}
		b.DecideAll(ctxs, out)
		for i := range scalar {
			want := scalar[i].Decide(ctxs[i])
			if out[i] != want {
				t.Fatalf("step %d lane %d: lane group %+v != scalar %+v", step, i, out[i], want)
			}
		}
	}
}

// TestBatchablePredicate pins the sweep engine's grouping predicate:
// pointer kernels exist exactly for the on/off and fuzzy baselines.
func TestBatchablePredicate(t *testing.T) {
	m, err := cabin.New(cabin.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !Batchable(NewOnOff(m)) || !Batchable(NewFuzzy(m)) {
		t.Error("on/off and fuzzy must be batchable")
	}
	if Batchable(NewPID(m)) {
		t.Error("PID has no pointer kernel and must not report batchable")
	}
	if Batchable(&Constant{Model: m}) {
		t.Error("constant controller must not report batchable")
	}
}

// TestBatchMixedFamiliesFallsBack checks that a mixed lane group — the
// two kernel families next to controllers that step through Decide —
// gives every lane its own controller's decision, never another
// family's kernel.
func TestBatchMixedFamiliesFallsBack(t *testing.T) {
	build := func() []Controller {
		m := model(t)
		return []Controller{NewOnOff(m), NewFuzzy(m), NewPID(m), &Constant{Model: m}}
	}
	walkLanes(t, Batch(build()), build(), 40)
}
