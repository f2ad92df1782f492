// Package runner is the parallel scenario-sweep engine: it takes a
// declarative sweep specification — sets of controllers, drive cycles,
// ambient conditions, targets, and seeds — expands it into a stable,
// spec-ordered job list, executes the jobs across a worker pool, and
// aggregates the sim.Results in spec order regardless of scheduling.
//
// Guarantees:
//
//   - Deterministic replay: job i of a spec always simulates exactly the
//     same scenario with the same derived seed, so a sweep run with any
//     worker count produces bit-identical results to the sequential run
//     (proven by TestParallelMatchesSequential).
//   - Stable output order: Sweep.Jobs[i] corresponds to the i-th job of
//     the expansion, independent of completion order.
//   - Fault isolation: a panicking scenario is captured into its
//     JobResult.Err; the remaining jobs still run.
//   - Cancellation: a cancelled context stops dispatch; jobs that never
//     ran carry the context error.
//
// The expansion order is cycles (outermost), then environments, then
// targets, then fault scenarios, then controllers (innermost), so one
// "cell" — every controller on one scenario — occupies a contiguous block
// of the output (see Sweep.Cells).
package runner

import (
	"fmt"

	"evclimate/internal/control"
	"evclimate/internal/drivecycle"
	"evclimate/internal/faults"
	"evclimate/internal/sim"
)

// Env is one ambient-condition cell of a sweep: a constant outside
// temperature and solar load applied onto each cycle's profile.
type Env struct {
	// AmbientC is the outside air temperature, °C.
	AmbientC float64
	// SolarW is the solar thermal load on the cabin, W.
	SolarW float64
}

// CycleSpec names one drive-profile source. Exactly one of Name, Profile,
// or Gen must be set.
type CycleSpec struct {
	// Name resolves a standard cycle through drivecycle.ByName and
	// samples it at 1 s.
	Name string
	// Profile uses an explicit, fully prepared profile. The profile is
	// treated as read-only and may be shared between jobs.
	Profile *drivecycle.Profile
	// Gen synthesizes a profile from the cycle's derived seed (Monte-
	// Carlo sweeps). It is called once per cycle during expansion; all
	// controllers and environments of the cycle share the result.
	Gen func(seed int64) (*drivecycle.Profile, error)
	// Label overrides the cycle label recorded in Job.Cycle (defaults to
	// the resolved profile name).
	Label string
}

// ControllerSpec names a controller family and builds fresh instances.
// Instances are never shared between jobs, so New must return an
// independent controller each call and be safe to call concurrently.
type ControllerSpec struct {
	// Label identifies the controller in results and in the cache key.
	Label string
	// Key distinguishes controller configurations that share a label in
	// the result cache; set it when the same Label can carry different
	// tuning (see MPCSpec).
	Key string
	// ControlDt overrides the sim control period for this controller
	// (0 = the sweep template's period).
	ControlDt float64
	// ForecastSteps is the preview window handed to the controller.
	ForecastSteps int
	// New builds a fresh controller instance.
	New func() (control.Controller, error)
}

// Spec is a declarative sweep: the cross-product of Cycles × Envs ×
// Targets × Controllers, each cell one closed-loop simulation.
type Spec struct {
	// Controllers are the compared controller families (innermost
	// expansion dimension).
	Controllers []ControllerSpec
	// Cycles are the drive-profile sources (outermost dimension).
	Cycles []CycleSpec
	// Envs are the ambient conditions applied to each cycle. Empty
	// leaves the cycles' profiles untouched (they already carry their
	// environment).
	Envs []Env
	// Targets are the cabin target temperatures. Empty inherits the
	// template's target (24 °C by default).
	Targets []float64
	// Faults are the fault scenarios swept over each scenario cell
	// (between targets and controllers in the expansion). Empty runs
	// fault-free; include faults.Spec{} (the empty scenario) alongside
	// real ones to compare faulted against clean runs in one sweep.
	Faults []faults.Spec
	// ComfortBandC is the comfort-zone half width (0 = template value).
	ComfortBandC float64
	// MaxProfileS truncates every profile (0 = full length).
	MaxProfileS float64
	// BaseSeed seeds the per-cycle derived seeds of generated cycles and
	// the per-job seeds, which drive fault injection (Config.FaultSeed)
	// and retry jitter. Two sweeps with equal specs and seeds are
	// bit-identical; a fault-free sweep of fixed cycles gives the same
	// results, and the same job fingerprints, under any BaseSeed.
	BaseSeed int64
	// StartFromAmbient starts each run from a soaked cabin instead of a
	// cabin preconditioned at the target temperature.
	StartFromAmbient bool
	// Base optionally overrides the simulation template (powertrain,
	// cabin, BMS, settle time, sub-steps). Its Profile field is ignored.
	Base *sim.Config
}

// Job is one fully resolved scenario, ready to execute.
type Job struct {
	// Index is the job's position in the expansion.
	Index int
	// Cycle is the cycle label.
	Cycle string
	// Controller is the controller family to instantiate.
	Controller ControllerSpec
	// Env is the applied ambient cell (zero when Spec.Envs was empty).
	Env Env
	// TargetC is the cabin target temperature.
	TargetC float64
	// Fault is the injected fault scenario (nil when Spec.Faults was
	// empty or the cell is the empty scenario).
	Fault *faults.Spec
	// Seed is the job's derived deterministic seed (never a shared RNG):
	// mixed from Spec.BaseSeed and Index with splitmix64.
	Seed int64
	// Config is the complete simulation configuration.
	Config sim.Config
}

// deriveSeed mixes a base seed and an index into an independent stream
// seed (splitmix64 finalizer) — per-job determinism without shared RNG.
func deriveSeed(base int64, index int) int64 {
	z := uint64(base) + 0x9E3779B97F4A7C15*uint64(index+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// resolveProfile builds a cycle's base profile (before environment).
// maxS is the sweep's MaxProfileS: named cycles sample only that span up
// front (identical to sampling fully and truncating, without building
// the tail); explicit and generated profiles are truncated by Expand.
func (c *CycleSpec) resolveProfile(cycleSeed int64, maxS float64) (*drivecycle.Profile, error) {
	switch {
	case c.Gen != nil:
		return c.Gen(cycleSeed)
	case c.Profile != nil:
		return c.Profile, nil
	case c.Name != "":
		cyc, err := drivecycle.ByName(c.Name)
		if err != nil {
			return nil, err
		}
		return cyc.ProfileSpan(1, maxS), nil
	}
	return nil, fmt.Errorf("runner: cycle spec needs Name, Profile, or Gen")
}

// Expand resolves the spec into its ordered job list. Profiles are
// resolved once per (cycle, env) pair and shared read-only between the
// jobs of that cell.
func Expand(spec Spec) ([]Job, error) {
	if len(spec.Controllers) == 0 {
		return nil, fmt.Errorf("runner: spec has no controllers")
	}
	if len(spec.Cycles) == 0 {
		return nil, fmt.Errorf("runner: spec has no cycles")
	}
	envs := spec.Envs
	applyEnv := true
	if len(envs) == 0 {
		envs = []Env{{}}
		applyEnv = false
	}

	var jobs []Job
	for ci := range spec.Cycles {
		cs := &spec.Cycles[ci]
		// The cycle seed is deliberately distinct from job seeds so every
		// controller/environment of one generated cycle shares a profile.
		base, err := cs.resolveProfile(deriveSeed(spec.BaseSeed^0x5EED, ci), spec.MaxProfileS)
		if err != nil {
			return nil, fmt.Errorf("runner: cycle %d: %w", ci, err)
		}
		label := cs.Label
		if label == "" {
			label = base.Name
		}
		base = base.Truncate(spec.MaxProfileS)
		for _, env := range envs {
			p := base
			if applyEnv {
				p = p.WithEnv(env.AmbientC, env.SolarW)
			}
			targets := spec.Targets
			if len(targets) == 0 {
				targets = []float64{templateTarget(spec.Base, p)}
			}
			for _, target := range targets {
				fltSpecs := spec.Faults
				if len(fltSpecs) == 0 {
					fltSpecs = []faults.Spec{{}}
				}
				for _, flt := range fltSpecs {
					for _, ctrl := range spec.Controllers {
						cfg := templateConfig(spec.Base, p)
						cfg.TargetC = target
						if spec.ComfortBandC > 0 {
							cfg.ComfortBandC = spec.ComfortBandC
						}
						if spec.StartFromAmbient {
							cfg.UseAmbientStart = true
						} else {
							cfg.InitialCabinC = target
						}
						if ctrl.ControlDt > 0 {
							cfg.ControlDt = ctrl.ControlDt
						}
						cfg.ForecastSteps = ctrl.ForecastSteps

						job := Job{
							Index:      len(jobs),
							Cycle:      label,
							Controller: ctrl,
							Env:        env,
							TargetC:    target,
							Seed:       deriveSeed(spec.BaseSeed, len(jobs)),
							Config:     cfg,
						}
						if !flt.Empty() {
							f := flt
							job.Fault = &f
							job.Config.Faults = &f
							job.Config.FaultSeed = job.Seed
						}
						jobs = append(jobs, job)
					}
				}
			}
		}
	}
	return jobs, nil
}

// templateConfig copies the sweep's simulation template for one profile.
func templateConfig(base *sim.Config, p *drivecycle.Profile) sim.Config {
	if base == nil {
		return sim.DefaultConfig(p)
	}
	cfg := *base
	cfg.Profile = p
	return cfg
}

// templateTarget returns the template's target temperature.
func templateTarget(base *sim.Config, p *drivecycle.Profile) float64 {
	return templateConfig(base, p).TargetC
}
