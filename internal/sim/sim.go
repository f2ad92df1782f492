// Package sim is the co-simulation engine that plays the role of the
// paper's MATLAB/Simulink + AMESim setup (Sec. IV-A): it integrates the
// continuous EV plant — power train, cabin thermal model, and battery —
// with RK4 at a finer step than the controller period, closes the loop
// with a climate controller each control period, and records the traces
// and metrics (average HVAC power, ΔSoH, comfort statistics) that the
// paper's figures and tables report.
package sim

import (
	"errors"
	"fmt"
	"math"

	"evclimate/internal/bms"
	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/drivecycle"
	"evclimate/internal/faults"
	"evclimate/internal/powertrain"
	"evclimate/internal/telemetry"
	"evclimate/internal/thermal"
)

// Config assembles one co-simulation run.
type Config struct {
	// Profile is the drive profile (speed, slope, ambient, solar).
	Profile *drivecycle.Profile
	// Powertrain parameterizes the traction model.
	Powertrain powertrain.Params
	// Cabin parameterizes the HVAC plant.
	Cabin cabin.Params
	// BMS parameterizes the battery and its management.
	BMS bms.Config
	// TargetC is the desired cabin temperature.
	TargetC float64
	// ComfortBandC is the comfort-zone half-width around TargetC
	// (constraint C2). Default 3 °C.
	ComfortBandC float64
	// InitialCabinC is the cabin temperature at drive start; it must be
	// finite, and it is ignored when UseAmbientStart is set.
	InitialCabinC float64
	// UseAmbientStart starts the cabin at the first sample's ambient
	// temperature instead of InitialCabinC (a soaked car).
	UseAmbientStart bool
	// ControlDt is the controller period in seconds (default Profile.Dt).
	ControlDt float64
	// PlantSubSteps is the number of RK4 plant sub-steps per control
	// period (default 5) — the plant/controller rate mismatch that makes
	// this a co-simulation rather than a single discretized model.
	PlantSubSteps int
	// ForecastSteps is the number of preview steps handed to the
	// controller (default 0: no preview; the MPC sets its own horizon).
	ForecastSteps int
	// SettleS excludes the initial pull-down transient from the comfort
	// statistics (default 300 s).
	SettleS float64
	// Faults, when non-nil and non-empty, is the fault scenario injected
	// between the plant and the controller: every control step's
	// StepContext is corrupted per the schedule before the controller
	// sees it, while the plant keeps integrating the true signals.
	Faults *faults.Spec
	// FaultSeed seeds the fault schedule's random draws; runs with equal
	// configs and seeds replay bit-identically.
	FaultSeed int64
	// Thermal, when non-nil, attaches the cold-climate battery thermal
	// network (internal/thermal): the pack exchanges heat with cabin,
	// coolant loop, and ambient, cabin heating runs through the heat pump
	// (PTC below cutoff), the battery heater/chiller branch commands in
	// cabin.Inputs actuate, Joule losses self-heat the pack, and the run
	// reports pack-temperature and calendar-aging metrics. Nil keeps the
	// paper's cabin-only co-simulation bit-for-bit.
	Thermal *thermal.Config
	// Telemetry, when non-nil and active, receives one StepSpan per
	// control step plus step counters and latency histograms. Nil (or
	// telemetry.Nop) adds no per-step work; the sweep engine excludes this
	// field from scenario fingerprints.
	Telemetry telemetry.Sink
}

// Trace records the closed-loop trajectories. In JSON it is one string,
// the packed wire form of MarshalText: in base64, per column, a flag bit
// per value that repeats the one before it and the float64 bits of each
// value that does not. Journals, fabric completions, the result cache
// and checkpoints so carry a trace bit-exactly without printing each
// value as decimal text, and a run of one value costs a bit a step.
type Trace struct {
	// Time holds the control-step timestamps.
	Time []float64
	// CabinC, OutsideC are temperatures at those instants.
	CabinC, OutsideC []float64
	// MotorW, HeaterW, CoolerW, FanW, HVACW, TotalW are the power terms
	// applied over each step.
	MotorW, HeaterW, CoolerW, FanW, HVACW, TotalW []float64
	// SoC is the battery state of charge after each step, percent.
	SoC []float64
	// PackC is the battery-pack temperature after each step (thermal
	// runs only; nil otherwise).
	PackC []float64
	// Inputs are the HVAC inputs applied over each step.
	Inputs []cabin.Inputs
}

// growFloats returns s with capacity for at least n elements, keeping
// its values; the result aliases s when no growth is needed.
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s
	}
	out := make([]float64, len(s), n)
	copy(out, s)
	return out
}

// growInputs is growFloats for the inputs column.
func growInputs(s []cabin.Inputs, n int) []cabin.Inputs {
	if cap(s) >= n {
		return s
	}
	out := make([]cabin.Inputs, len(s), n)
	copy(out, s)
	return out
}

// growTrace preallocates every trace column to the run's known step
// count so the per-step appends never regrow a slice mid-run. A fresh
// trace gets all ten float columns carved out of one slab allocation;
// a resumed trace grows its existing columns in place.
func growTrace(tr *Trace, n int, thermal bool) {
	if tr.Time == nil && tr.Inputs == nil {
		slab := make([]float64, 10*n)
		tr.Time = slab[0*n : 0*n : 1*n]
		tr.CabinC = slab[1*n : 1*n : 2*n]
		tr.OutsideC = slab[2*n : 2*n : 3*n]
		tr.MotorW = slab[3*n : 3*n : 4*n]
		tr.HeaterW = slab[4*n : 4*n : 5*n]
		tr.CoolerW = slab[5*n : 5*n : 6*n]
		tr.FanW = slab[6*n : 6*n : 7*n]
		tr.HVACW = slab[7*n : 7*n : 8*n]
		tr.TotalW = slab[8*n : 8*n : 9*n]
		tr.SoC = slab[9*n : 9*n : 10*n]
		if thermal {
			tr.PackC = make([]float64, 0, n)
		}
		tr.Inputs = make([]cabin.Inputs, 0, n)
		return
	}
	tr.Time = growFloats(tr.Time, n)
	tr.CabinC = growFloats(tr.CabinC, n)
	tr.OutsideC = growFloats(tr.OutsideC, n)
	tr.MotorW = growFloats(tr.MotorW, n)
	tr.HeaterW = growFloats(tr.HeaterW, n)
	tr.CoolerW = growFloats(tr.CoolerW, n)
	tr.FanW = growFloats(tr.FanW, n)
	tr.HVACW = growFloats(tr.HVACW, n)
	tr.TotalW = growFloats(tr.TotalW, n)
	tr.SoC = growFloats(tr.SoC, n)
	if thermal {
		tr.PackC = growFloats(tr.PackC, n)
	}
	tr.Inputs = growInputs(tr.Inputs, n)
}

// Result bundles a run's trace and summary metrics.
type Result struct {
	// Controller is the controller name.
	Controller string
	// Trace holds the full trajectories.
	Trace Trace
	// AvgHVACW is the mean HVAC electrical power (Fig. 8 / Table I).
	AvgHVACW float64
	// AvgMotorW is the mean traction power.
	AvgMotorW float64
	// AvgTotalW is the mean total battery power.
	AvgTotalW float64
	// HVACEnergyKWh is the integrated HVAC energy.
	HVACEnergyKWh float64
	// DeltaSoH is the SoH degradation for the cycle, percent (Fig. 7 /
	// Table I).
	DeltaSoH float64
	// SoCDev and SoCAvg are the battery stress statistics (Eqs. 16–17).
	SoCDev, SoCAvg float64
	// FinalSoC is the SoC at drive end.
	FinalSoC float64
	// CalendarDeltaSoH is the calendar-aging (storage) capacity loss over
	// the cycle, percent — Arrhenius in pack temperature, SoC-dependent
	// (thermal runs only; the cycle DeltaSoH above is additionally scaled
	// by the pack-temperature cycle stress factor).
	CalendarDeltaSoH float64
	// PackMeanC, PackMinC, and PackFinalC summarize the pack-temperature
	// trajectory (thermal runs only).
	PackMeanC, PackMinC, PackFinalC float64
	// HeatPumpFrac is the fraction of heating steps served by the heat
	// pump (vs PTC); AvgCOP the mean heating conversion factor over the
	// heat-pump steps (thermal runs only).
	HeatPumpFrac float64
	AvgCOP       float64
	// ThermalEnergyDefectJ is the thermal network's closing energy-ledger
	// defect — should be roundoff-small (thermal runs only).
	ThermalEnergyDefectJ float64
	// ComfortViolationFrac is the fraction of post-settling time spent
	// outside the comfort zone.
	ComfortViolationFrac float64
	// RMSTrackingErrC is the post-settling RMS of Tz − Ttarget.
	RMSTrackingErrC float64
	// Events are the BMS protection counters.
	Events bms.Events
}

// Runner holds the instantiated models for repeated runs.
type Runner struct {
	cfg   Config
	pt    *powertrain.Model
	hvac  *cabin.Model
	motor []float64 // precomputed P_e per profile sample
	steps int       // control steps in the run (TimeGrid)

	// Preview scratch, reused across control steps so forecast does not
	// allocate three slices per step (see forecast for the aliasing
	// contract).
	fcMotor, fcOutside, fcSolar []float64
}

// New validates the configuration and precomputes the motor power
// profile (Algorithm 1, lines 2–5).
func New(cfg Config) (*Runner, error) {
	r, err := buildRunner(cfg, nil)
	if err != nil {
		return nil, err
	}
	r.motor = r.pt.PowerProfile(r.cfg.Profile)
	return r, nil
}

// buildRunner validates the configuration and builds a Runner without
// the motor power profile, so NewBatch can share one profile across
// lanes that drive the same cycle with the same powertrain. validated is
// a cross-lane memo: batch lanes usually share profile pointers (one per
// cycle/environment cell), so each distinct profile is validated once
// instead of once per lane. A nil memo validates unconditionally.
func buildRunner(cfg Config, validated map[*drivecycle.Profile]bool) (*Runner, error) {
	if cfg.Profile == nil {
		return nil, errors.New("sim: nil profile")
	}
	if !validated[cfg.Profile] {
		if err := cfg.Profile.Validate(); err != nil {
			return nil, err
		}
		if validated != nil {
			validated[cfg.Profile] = true
		}
	}
	// The defaulting comparisons below are all false for NaN, so a
	// non-finite value would slip through them into the run.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"TargetC", cfg.TargetC},
		{"ComfortBandC", cfg.ComfortBandC},
		{"InitialCabinC", cfg.InitialCabinC},
		{"SettleS", cfg.SettleS},
		{"ControlDt", cfg.ControlDt},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("sim: %s must be finite, got %v", f.name, f.v)
		}
	}
	var steps int
	cfg.ControlDt, cfg.PlantSubSteps, steps = TimeGrid(&cfg)
	if cfg.ComfortBandC <= 0 {
		cfg.ComfortBandC = 3
	}
	if cfg.SettleS < 0 {
		return nil, fmt.Errorf("sim: negative settle time %v", cfg.SettleS)
	}
	if cfg.SettleS == 0 {
		cfg.SettleS = 120
	}
	pt, err := powertrain.New(cfg.Powertrain)
	if err != nil {
		return nil, err
	}
	hvac, err := cabin.New(cfg.Cabin)
	if err != nil {
		return nil, err
	}
	if err := cfg.BMS.Validate(); err != nil {
		return nil, err
	}
	if cfg.Thermal != nil {
		if err := cfg.Thermal.Validate(); err != nil {
			return nil, err
		}
	}
	return &Runner{cfg: cfg, pt: pt, hvac: hvac, steps: steps}, nil
}

// TimeGrid returns a run's time grid after defaulting: the control
// period (ControlDt, else Profile.Dt), the plant sub-steps per control
// step (PlantSubSteps, else 5), and the control-step count
// ceil(duration/dt).
func TimeGrid(cfg *Config) (dt float64, subSteps, steps int) {
	dt, subSteps = cfg.ControlDt, cfg.PlantSubSteps
	if dt <= 0 {
		dt = cfg.Profile.Dt
	}
	if subSteps <= 0 {
		subSteps = 5
	}
	return dt, subSteps, int(math.Ceil(cfg.Profile.Duration() / dt))
}

// MotorPower returns the precomputed P_e at time t (zero-order hold).
func (r *Runner) MotorPower(t float64) float64 {
	idx := int(math.Floor(t / r.cfg.Profile.Dt))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.motor) {
		idx = len(r.motor) - 1
	}
	return r.motor[idx]
}

// forecast builds the preview window starting at time t. The returned
// slices alias the Runner's scratch buffers and are overwritten by the
// next call: consumers must copy what they keep across steps (the MPC
// resamples into its own horizon arrays; the fault injector's corrupt
// mode copies before mutating).
func (r *Runner) forecast(t float64, steps int) control.Forecast {
	if steps <= 0 {
		return control.Forecast{}
	}
	if cap(r.fcMotor) < steps {
		r.fcMotor = make([]float64, steps)
		r.fcOutside = make([]float64, steps)
		r.fcSolar = make([]float64, steps)
	}
	f := control.Forecast{
		Dt:          r.cfg.ControlDt,
		MotorPowerW: r.fcMotor[:steps],
		OutsideC:    r.fcOutside[:steps],
		SolarW:      r.fcSolar[:steps],
	}
	for k := 0; k < steps; k++ {
		tk := t + float64(k)*r.cfg.ControlDt
		s := r.cfg.Profile.At(tk)
		f.MotorPowerW[k] = r.MotorPower(tk)
		f.OutsideC[k] = s.AmbientC
		f.SolarW[k] = s.SolarW
	}
	return f
}

// Run simulates the whole profile under the given controller and returns
// the trace and metrics. The controller is Reset before the run.
func (r *Runner) Run(ctrl control.Controller) (*Result, error) {
	return r.RunWith(ctrl, RunOptions{})
}

// RunWith simulates the profile like Run, with durability controls: a
// per-step cancellation context (the watchdog hook), periodic state
// checkpoints, and resumption from a prior checkpoint. A resumed run's
// remaining trajectory is bit-for-bit identical to the uninterrupted
// run's. The controller is Reset before the run (and then restored, when
// resuming). The run is a 1-lane BatchRunner: there is one step loop.
func (r *Runner) RunWith(ctrl control.Controller, opts RunOptions) (*Result, error) {
	n := r.steps
	if n <= 0 {
		return nil, errors.New("sim: profile too short for one control step")
	}
	br := &BatchRunner{lanes: []*Runner{r}, n: n, dt: r.cfg.ControlDt, subSteps: r.cfg.PlantSubSteps}
	bopts := BatchRunOptions{Context: opts.Context, CheckpointEvery: opts.CheckpointEvery}
	if opts.OnCheckpoint != nil {
		bopts.OnCheckpoint = func(_ int, ck *Checkpoint) error { return opts.OnCheckpoint(ck) }
	}
	if opts.Resume != nil {
		bopts.Resume = []*Checkpoint{opts.Resume}
	}
	rs, err := br.RunWith(control.Batch([]control.Controller{ctrl}), bopts)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// defaultPowertrain is the shared Leaf parameter set DefaultConfig hands
// out. Building it once keeps every defaulted configuration ==-equal in
// its Powertrain field (one efficiency-map pointer), which is what lets
// sweep jobs share motor power profiles; the map is immutable after
// construction throughout the codebase.
var defaultPowertrain = powertrain.NissanLeaf()

// DefaultConfig returns the experiment baseline: Nissan Leaf power train,
// the default single-zone HVAC, the Leaf pack at 90 % SoC, 24 °C target
// with a ±3 °C comfort zone, 1 s control period, and a pre-conditioned
// cabin starting at the target temperature (the paper's Fig. 5 traces
// start inside the comfort zone; set UseAmbientStart for soak studies).
func DefaultConfig(p *drivecycle.Profile) Config {
	return Config{
		Profile:       p,
		Powertrain:    defaultPowertrain,
		Cabin:         cabin.Default(),
		BMS:           bms.DefaultConfig(),
		TargetC:       24,
		ComfortBandC:  3,
		InitialCabinC: 24,
		ControlDt:     1,
		PlantSubSteps: 5,
	}
}
