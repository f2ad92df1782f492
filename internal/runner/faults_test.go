package runner

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"evclimate/internal/core"
	"evclimate/internal/faults"
	"evclimate/internal/sim"
)

// faultSweepSpec exercises every injector class on a short cycle: sensor
// noise and dropout (seeded draws), a forecast corruption, and a solver
// budget squeeze, against both a baseline pair and the full supervised
// ladder. The zero faults.Spec entry keeps an unfaulted control cell in
// the same sweep.
func faultSweepSpec() Spec {
	mcfg := core.DefaultConfig()
	mcfg.SQPMaxIter = 8
	return Spec{
		Controllers: []ControllerSpec{
			OnOffSpec(1),
			FuzzySpec(1),
			SupervisedMPCSpec(core.SupervisedConfig{MPC: mcfg}, mcfg.Dt),
		},
		Cycles: []CycleSpec{{Name: "ECE15"}},
		Envs:   []Env{{AmbientC: 35, SolarW: 400}},
		Faults: []faults.Spec{
			{},
			{
				Name: "gauntlet",
				Sensor: []faults.SensorFault{
					{Signal: faults.CabinTemp, Mode: faults.Noise, Value: 0.6, Window: faults.Window{StartS: 10, EndS: 120}},
					{Signal: faults.OutsideTemp, Mode: faults.Dropout, Rate: 0.5, Window: faults.Window{StartS: 20, EndS: 140}},
					{Signal: faults.SoC, Mode: faults.Quantize, Value: 1, Window: faults.Window{StartS: 0, EndS: 150}},
				},
				Forecast: []faults.ForecastFault{
					{Mode: faults.ForecastCorrupt, SigmaW: 2000, Window: faults.Window{StartS: 30, EndS: 110}},
				},
				Solver: []faults.SolverFault{
					{MaxIter: 1, Window: faults.Window{StartS: 60, EndS: 100}},
				},
			},
		},
		MaxProfileS: 150,
		BaseSeed:    7,
	}
}

// faultSweepJobs expands faultSweepSpec and starts every cabin inside
// the comfort band so the thermostat actually switches — a soaked start
// saturates every controller full-cool for the whole short profile,
// masking sensor noise.
func faultSweepJobs(t *testing.T) []Job {
	t.Helper()
	jobs, err := Expand(faultSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		jobs[i].Config.InitialCabinC = 24.5
	}
	return jobs
}

// runFaultSweep runs faultSweepJobs on the given number of workers and
// fails the test on any job error.
func runFaultSweep(t *testing.T, workers int) []JobResult {
	t.Helper()
	res, err := RunJobs(context.Background(), faultSweepJobs(t), Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("job %d: %v", i, res[i].Err)
		}
	}
	return res
}

// TestFaultExpansion checks the fault axis threads into jobs: one job per
// (fault, controller) pair, the faulted jobs carrying the spec and the
// cell seed into sim.Config, the unfaulted job carrying neither.
func TestFaultExpansion(t *testing.T) {
	jobs := faultSweepJobs(t)
	if len(jobs) != 6 {
		t.Fatalf("jobs = %d, want 6 (2 faults × 3 controllers)", len(jobs))
	}
	for _, j := range jobs {
		if j.Fault == nil {
			if j.Config.Faults != nil {
				t.Errorf("job %d: unfaulted job has sim fault config", j.Index)
			}
			continue
		}
		if j.Fault.Name != "gauntlet" || j.Config.Faults != j.Fault {
			t.Errorf("job %d: fault not threaded into sim config", j.Index)
		}
		if j.Config.FaultSeed != j.Seed {
			t.Errorf("job %d: fault seed %d != job seed %d", j.Index, j.Config.FaultSeed, j.Seed)
		}
	}
	// The fault axis must split the cache fingerprint: same cell, same
	// controller, different fault → different key.
	if k0, k6 := jobs[0].Fingerprint(), jobs[3].Fingerprint(); k0 == k6 {
		t.Error("faulted and unfaulted jobs share a cache fingerprint")
	}
}

// TestFaultReplayAcrossWorkers is the determinism proof extended to fault
// injection: every seeded draw (noise, dropout, forecast corruption) must
// replay bit-identically whether the sweep runs sequentially or spread
// over a worker pool.
func TestFaultReplayAcrossWorkers(t *testing.T) {
	seq := runFaultSweep(t, 1)
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	par := runFaultSweep(t, workers)
	if len(seq) != len(par) {
		t.Fatalf("job counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		tag := fmt.Sprintf("job %d (%s)", i, seq[i].Job.Controller.Label)
		if seq[i].Job.Fault != nil {
			tag += " under " + seq[i].Job.Fault.Name
		}
		identicalResults(t, tag, seq[i].Result, par[i].Result)
	}
	// The faulted runs must actually differ from the clean ones, or the
	// injector never fired and the test proves nothing.
	for i := 0; i < 3; i++ {
		clean, faulted := seq[i].Result, seq[i+3].Result
		if clean.AvgHVACW == faulted.AvgHVACW && clean.ComfortViolationFrac == faulted.ComfortViolationFrac {
			t.Errorf("%s: faulted run identical to clean run", seq[i].Job.Controller.Label)
		}
	}
}

// TestFaultConformance is the acceptance sweep: all three controller
// families must keep satisfying the physical invariants under every
// built-in fault scenario. Faults corrupt only what controllers observe,
// so actuator limits, SoC bounds, and energy closure must hold exactly as
// in clean runs; two tolerances widen. The comfort budget grows because a
// stuck or dropped cabin sensor legitimately costs comfort, and the
// actuator slack grows from the clean-run 10 W to 100 W (~1.6 % of
// actuator authority) because a controller whose temperature estimate is
// wrong commands reheat-style heater/cooler overlap the true mix
// temperature turns into real watts on both actuators.
func TestFaultConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("fault conformance sweep is minutes of simulation")
	}
	tol := sim.DefaultTolerances()
	tol.MaxComfortViolationFrac = 0.6
	tol.ActuatorSlack = 100
	for _, name := range faults.BuiltinNames() {
		flt, err := faults.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := Spec{
				Controllers: conformanceControllers(),
				Cycles:      []CycleSpec{{Name: "ECE_EUDC"}},
				Envs:        []Env{{AmbientC: 35, SolarW: 400}},
				Faults:      []faults.Spec{flt},
				MaxProfileS: 500,
				BaseSeed:    11,
			}
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
				if err := sim.CheckInvariants(jr.Job.Config, jr.Result, tol); err != nil {
					t.Errorf("%s violates invariants under %q: %v", jr.Job.Controller.Label, name, err)
				}
			}
		})
	}
}
