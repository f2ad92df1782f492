package runner

import (
	"context"
	"math"
	"testing"

	"evclimate/internal/core"
)

// Golden regression pin: the three controllers on the first 600 s of the
// ECE_EUDC cycle, hot day (35 °C, 400 W solar), soaked cabin, default
// configurations. The
// committed values were produced by this exact scenario; a change beyond
// tolerance means the simulation physics, a controller, or the sweep
// engine changed behaviour — bump the goldens only when that change is
// intended and understood.
//
// Tolerances are relative (1e-3) for the power and degradation metrics to
// absorb cross-architecture FMA/rounding differences, and absolute for
// the comfort violation fraction (a ratio of step counts).

type goldenRow struct {
	label                string
	avgHVACW             float64
	deltaSoH             float64
	comfortViolationFrac float64
}

func goldenControllers() []ControllerSpec {
	return []ControllerSpec{
		OnOffSpec(1),
		FuzzySpec(1),
		MPCSpec(core.DefaultConfig(), 0),
	}
}

var goldens = []goldenRow{
	{"On/Off", 6232.32, 0.01262321064, 0.4736842105},
	{"Fuzzy-based", 3953.730325, 0.01028015854, 0.8989473684},
	// MPC row regenerated for the stage-structured solver backend
	// (stage-major decision vector, block-diagonal BFGS, exact
	// heater/cooler complementarity on the emitted move), and again when
	// the stage KKT became a Riccati recursion over the stage state: its
	// Newton steps equal the dense reference's to roundoff, but this
	// soaked pull-down's QPs stop at their iteration limit, so roundoff
	// seeds different iterates. Observed: 4855.581178 W → 4870.120976 W,
	// ΔSoH 0.01172499523 → 0.01168015363 %, comfort violation 0.3368 →
	// 0.3263 (two steps); the previous solver forced onto its dense path
	// gives 4848.294207 W, 0.01168314039 % and 0.3263.
	// Regenerated again when sqp's line search gained the second-order
	// correction (core's forward simulation of its prediction model):
	// unit steps are taken where the ℓ₁ merit used to backtrack, so the
	// decides of this pull-down end at different iterates. Observed,
	// against the previous solver on this host: 4870.608842 W →
	// 4880.125186 W (+0.2 %), ΔSoH 0.01168670951 → 0.01167456809 %,
	// comfort violation unchanged at 0.3263.
	// Regenerated again when the stage KKT's solve began to reuse the
	// stored Riccati factors Q and R (one triangular sweep per stage and
	// direction): the same Newton steps in a different arithmetic order,
	// so the decides of this pull-down move at roundoff. Observed:
	// 4880.125186 W → 4880.86454 W, ΔSoH 0.01167456809 → 0.01165752941 %,
	// comfort violation unchanged at 0.3263.
	// Regenerated again when a decide whose previous plan met the comfort
	// band began to start its SQP from that plan's shifted BFGS blocks
	// instead of the scaled-identity seed: once this pull-down reaches
	// the band, its decides take fewer iterations and stop at different
	// iterates within the solver tolerance. Observed: 4880.86454 W →
	// 4857.375723 W (−0.5 %), ΔSoH 0.01165752941 → 0.01170002895 %,
	// comfort violation unchanged at 0.3263.
	// Regenerated again when those carried decides became real-time
	// iterations of at most two SQP iterations instead of full solves:
	// each emitted move comes from a plan corrected twice and left for
	// the next decide to finish. Observed: 4857.375723 W → 4853.512699 W
	// (−0.1 %), ΔSoH 0.01170002895 → 0.01164452634 %, comfort violation
	// unchanged at 0.3263.
	{"Battery Lifetime-aware", 4853.512699, 0.01164452634, 0.3263157895},
}

func TestGoldenRegression(t *testing.T) {
	spec := Spec{
		Controllers:      goldenControllers(),
		Cycles:           []CycleSpec{{Name: "ECE_EUDC"}},
		Envs:             []Env{{AmbientC: 35, SolarW: 400}},
		MaxProfileS:      600,
		StartFromAmbient: true,
	}
	sw, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if len(sw.Jobs) != len(goldens) {
		t.Fatalf("jobs = %d, want %d", len(sw.Jobs), len(goldens))
	}
	relClose := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*math.Abs(want)
	}
	for i, g := range goldens {
		jr := &sw.Jobs[i]
		if jr.Job.Controller.Label != g.label {
			t.Errorf("job %d: controller %q, want %q", i, jr.Job.Controller.Label, g.label)
			continue
		}
		res := jr.Result
		if !relClose(res.AvgHVACW, g.avgHVACW, 1e-3) {
			t.Errorf("%s: AvgHVACW = %.10g, golden %.10g", g.label, res.AvgHVACW, g.avgHVACW)
		}
		if !relClose(res.DeltaSoH, g.deltaSoH, 1e-3) {
			t.Errorf("%s: DeltaSoH = %.10g, golden %.10g", g.label, res.DeltaSoH, g.deltaSoH)
		}
		if math.Abs(res.ComfortViolationFrac-g.comfortViolationFrac) > 5e-3 {
			t.Errorf("%s: ComfortViolationFrac = %.10g, golden %.10g",
				g.label, res.ComfortViolationFrac, g.comfortViolationFrac)
		}
	}
}
