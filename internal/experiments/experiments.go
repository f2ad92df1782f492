// Package experiments reproduces every figure and table of the paper's
// evaluation (Sec. IV): the motivational EV/ICE power breakdown (Fig. 1),
// the cabin-temperature traces of the three controllers (Fig. 5), the
// precool illustration (Fig. 6), the battery-lifetime comparison over the
// five drive profiles (Fig. 7), the average HVAC power comparison
// (Fig. 8), and the ambient-temperature analysis (Table I). The cmd/evbench
// binary and the repository-level benchmarks drive these harnesses.
package experiments

import (
	"context"

	"evclimate/internal/core"
	"evclimate/internal/runner"
	"evclimate/internal/sim"
)

// Control periods of the compared methodologies in seconds: the MPC
// re-optimizes every mpcControlDt, the baselines act every
// baselineControlDt.
const (
	mpcControlDt      = 5.0
	baselineControlDt = 1.0
)

// Options configures an experiment run. The zero value reproduces the
// paper's setup.
type Options struct {
	// AmbientC is the outside temperature for the hot-day experiments
	// (Figs. 5–8). Default 35 °C.
	AmbientC float64
	// SolarW is the constant solar thermal load. Default 400 W.
	SolarW float64
	// TargetC is the cabin target temperature. Default 24 °C.
	TargetC float64
	// ComfortBandC is the comfort-zone half width. Default 3 °C.
	ComfortBandC float64
	// MPC overrides the MPC configuration. Zero value → core.DefaultConfig.
	MPC *core.Config
	// MaxProfileS truncates drive profiles to this many seconds
	// (0 = full length) — used to keep unit tests fast.
	MaxProfileS float64
	// Ctx, when non-nil, is threaded into every sweep: cancellation
	// drains the worker pool between jobs (cmd/evbench wires its
	// SIGINT/SIGTERM handler here).
	Ctx context.Context
	// Run is the sweep-engine configuration every harness sweep runs
	// with: workers, batching, the shared result cache (cmd/evbench
	// shares one so e.g. Fig. 5 and Fig. 6 run their common scenarios
	// once), telemetry, trace, manifest, journal, watchdog and retry.
	// Each sweep runs on a copy that carries its own ManifestLabel.
	Run runner.Options
}

// runOptions returns the shared sweep-engine options labelled for one
// harness sweep.
func (o *Options) runOptions(label string) runner.Options {
	ro := o.Run
	ro.ManifestLabel = label
	return ro
}

// ctx returns the options' context (Background when unset).
func (o *Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o *Options) fill() {
	if o.AmbientC == 0 {
		o.AmbientC = 35
	}
	if o.SolarW == 0 {
		o.SolarW = 400
	}
	if o.TargetC == 0 {
		o.TargetC = 24
	}
	if o.ComfortBandC == 0 {
		o.ComfortBandC = 3
	}
}

func (o *Options) mpcConfig() core.Config {
	if o.MPC != nil {
		return *o.MPC
	}
	return core.DefaultConfig()
}

// ControllerName identifies the three compared methodologies.
const (
	NameOnOff = "On/Off"
	NameFuzzy = "Fuzzy-based"
	NameMPC   = "Battery Lifetime-aware"
)

// controllerSpecs returns the paper's three methodologies for the sweep
// engine: baselines at the fine control period, the MPC at its own period
// with preview enabled.
func (o *Options) controllerSpecs() []runner.ControllerSpec {
	return []runner.ControllerSpec{
		runner.OnOffSpec(baselineControlDt),
		runner.FuzzySpec(baselineControlDt),
		runner.MPCSpec(o.mpcConfig(), mpcControlDt),
	}
}

// sweep executes one scenario grid — the given cycles × environments
// under the given controllers — on the options' worker pool and cache,
// failing on the first job error. The label names the sweep in its
// manifest and journal file; each harness experiment passes its own, so
// a -resume never takes one experiment's journal for another's drifted
// spec.
func (o *Options) sweep(label string, controllers []runner.ControllerSpec, cycles []runner.CycleSpec, envs []runner.Env) (*runner.Sweep, error) {
	spec := runner.Spec{
		Controllers:  controllers,
		Cycles:       cycles,
		Envs:         envs,
		Targets:      []float64{o.TargetC},
		ComfortBandC: o.ComfortBandC,
		MaxProfileS:  o.MaxProfileS,
	}
	sw, err := runner.Run(o.ctx(), spec, o.runOptions(label))
	if err != nil {
		return nil, err
	}
	if err := sw.JobErrors(); err != nil {
		return nil, err
	}
	return sw, nil
}

// runStandard runs the three controllers on one registry cycle at the
// given ambient conditions as the sweep label names, and returns the
// results keyed by controller name.
func (o *Options) runStandard(label, cycleName string, ambientC, solarW float64) (map[string]*sim.Result, error) {
	sw, err := o.sweep(label, o.controllerSpecs(),
		[]runner.CycleSpec{{Name: cycleName}},
		[]runner.Env{{AmbientC: ambientC, SolarW: solarW}})
	if err != nil {
		return nil, err
	}
	return runner.CellMap(sw.Jobs), nil
}
