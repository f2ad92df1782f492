package runner

// Sweep-level lane independence. The sim package's property tests prove
// each batched lane bit-identical to its 1-lane run; these tests pin the
// pool's half of the contract — unit planning follows the expansion
// order alone, engages only where eligible, and a batched sweep's
// results are bit-identical to the one-lane-per-job pool at any worker
// count or batch size.

import (
	"context"
	"reflect"
	"testing"
)

// batchSweepSpec is a small grid whose jobs all qualify for batching:
// two batchable controller families over two cycles sharing a truncated
// time grid, two environments, one target — 8 jobs, 4 per family.
func batchSweepSpec() Spec {
	return Spec{
		Controllers: []ControllerSpec{OnOffSpec(1), FuzzySpec(1)},
		Cycles:      []CycleSpec{{Name: "ECE15"}, {Name: "UDDS"}},
		Envs:        []Env{{AmbientC: 35, SolarW: 400}, {AmbientC: 10}},
		Targets:     []float64{24},
		MaxProfileS: 150,
		BaseSeed:    99,
	}
}

// TestBatchSweepMatchesScalar runs the same spec through the
// one-lane-per-job pool and through batched pools at several (workers, batch size) points and
// requires bitwise-identical results job for job.
func TestBatchSweepMatchesScalar(t *testing.T) {
	ctx := context.Background()
	spec := batchSweepSpec()
	base, err := Run(ctx, spec, Options{Workers: 1, BatchSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := base.FirstErr(); err != nil {
		t.Fatal(err)
	}

	variants := []struct {
		name string
		opts Options
	}{
		{"default batch, 1 worker", Options{Workers: 1}},
		{"default batch, 4 workers", Options{Workers: 4}},
		{"batch of 3, 4 workers", Options{Workers: 4, BatchSize: 3}},
	}
	for _, v := range variants {
		sw, err := Run(ctx, spec, v.opts)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if err := sw.FirstErr(); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if len(sw.Jobs) != len(base.Jobs) {
			t.Fatalf("%s: %d jobs, want %d", v.name, len(sw.Jobs), len(base.Jobs))
		}
		for i := range sw.Jobs {
			jr, br := &sw.Jobs[i], &base.Jobs[i]
			if jr.Job.Index != br.Job.Index || jr.Job.Seed != br.Job.Seed {
				t.Fatalf("%s: job %d identity mismatch", v.name, i)
			}
			if !reflect.DeepEqual(jr.Result, br.Result) {
				t.Errorf("%s: job %d (%s on %s): batched result differs from scalar",
					v.name, i, jr.Job.Controller.Label, jr.Job.Cycle)
			}
		}
	}
}

// TestPlanUnitsDeterministic pins the planner: units cover every pending
// job exactly once, lanes of one unit share a controller family, the
// grid above actually forms multi-lane batches, and the plan is a pure
// function of the job list.
func TestPlanUnitsDeterministic(t *testing.T) {
	jobs, err := Expand(batchSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	plan := func(opts Options) [][]int {
		pe := &poolEnv{opts: opts, jobs: jobs}
		return pe.planUnits(make([]bool, len(jobs)))
	}

	units := plan(Options{})
	seen := make(map[int]bool)
	batched := 0
	for _, u := range units {
		if len(u) == 0 {
			t.Fatal("empty unit")
		}
		label := jobs[u[0]].Controller.Label
		for _, i := range u {
			if seen[i] {
				t.Fatalf("job %d scheduled twice", i)
			}
			seen[i] = true
			if jobs[i].Controller.Label != label {
				t.Fatalf("unit mixes controller families %q and %q", label, jobs[i].Controller.Label)
			}
		}
		if len(u) > 1 {
			batched++
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("plan covers %d of %d jobs", len(seen), len(jobs))
	}
	if batched == 0 {
		t.Fatal("no multi-lane units: batching never engaged on an all-eligible grid")
	}
	if again := plan(Options{}); !reflect.DeepEqual(units, again) {
		t.Fatal("plan is not deterministic for a fixed job list")
	}

	// Disabling batching — explicitly or via a mode that needs per-job
	// execution control — degenerates the plan to singletons.
	for _, opts := range []Options{
		{BatchSize: -1},
		{Retry: RetryPolicy{MaxAttempts: 2}},
	} {
		for _, u := range plan(opts) {
			if len(u) != 1 {
				t.Fatalf("opts %+v: expected singleton units, got lane count %d", opts, len(u))
			}
		}
	}
}
