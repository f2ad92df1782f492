package runner

import (
	"context"
	"testing"

	"evclimate/internal/core"
	"evclimate/internal/sim"
)

// The conformance suite: every controller family must satisfy the
// physical invariants of sim.CheckInvariants on every standard scenario —
// SoC bounded and consumed, actuator limits respected, cabin settled into
// the comfort band, and the energy bookkeeping closed. New controllers
// plug in by adding a ControllerSpec; new scenarios by adding a cell.

// conformanceControllers returns the three controller families of the
// paper. The MPC runs with a reduced SQP budget: the invariants do not
// depend on squeezing out the last milli-percent of the objective, and
// the suite covers many cells.
func conformanceControllers() []ControllerSpec {
	mcfg := core.DefaultConfig()
	mcfg.SQPMaxIter = 10
	return []ControllerSpec{
		OnOffSpec(1),
		FuzzySpec(1),
		MPCSpec(mcfg, mcfg.Dt),
	}
}

func TestControllerConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance sweep is minutes of simulation")
	}
	cells := []struct {
		name        string
		spec        Spec
		tol         sim.Tolerances
		startSoaked bool
	}{
		{
			// The paper's headline scenario: hot day, full urban cycle.
			name: "ECE15_hot",
			spec: Spec{
				Cycles: []CycleSpec{{Name: "ECE15"}},
				Envs:   []Env{{AmbientC: 35, SolarW: 400}},
			},
			tol: sim.DefaultTolerances(),
		},
		{
			// Longer urban cycle, hot day, truncated for test time.
			name: "UDDS_hot",
			spec: Spec{
				Cycles:      []CycleSpec{{Name: "UDDS"}},
				Envs:        []Env{{AmbientC: 35, SolarW: 400}},
				MaxProfileS: 400,
			},
			tol: sim.DefaultTolerances(),
		},
		{
			// Aggressive highway cycle on a freezing day: heating mode,
			// heavy regen. Regen charging makes the Peukert bookkeeping
			// looser, so the closure tolerance widens.
			name: "US06_cold",
			spec: Spec{
				Cycles:      []CycleSpec{{Name: "US06"}},
				Envs:        []Env{{AmbientC: 0, SolarW: 0}},
				MaxProfileS: 300,
			},
			tol: func() sim.Tolerances {
				tol := sim.DefaultTolerances()
				tol.EnergyClosureRel = 0.25
				return tol
			}(),
		},
	}

	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			spec := cell.spec
			spec.Controllers = conformanceControllers()
			sw, err := Run(context.Background(), spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range sw.Jobs {
				jr := &sw.Jobs[i]
				if jr.Err != nil {
					t.Errorf("%s: run failed: %v", jr.Job.Controller.Label, jr.Err)
					continue
				}
				if err := sim.CheckInvariants(jr.Job.Config, jr.Result, cell.tol); err != nil {
					t.Errorf("%s violates invariants: %v", jr.Job.Controller.Label, err)
				}
			}
		})
	}
}
