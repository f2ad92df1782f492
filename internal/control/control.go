// Package control defines the climate-controller interface shared by the
// baselines and the MPC, plus the two state-of-the-art baselines the paper
// compares against (Sec. IV-B): the switching On/Off thermostat [8][9] and
// the fuzzy-based controller [10]. A plain PID controller is included as
// an additional reference point.
package control

import (
	"encoding/json"

	"evclimate/internal/cabin"
	"evclimate/internal/telemetry"
)

// Forecast carries the preview information a predictive controller gets
// from the drive profile (paper Sec. II-A: route, traffic, and climate
// data known before driving). Slices share one sample period Dt and are
// equal length; a zero-length forecast means no preview is available.
type Forecast struct {
	// Dt is the forecast sample period in seconds.
	Dt float64
	// MotorPowerW is the predicted electrical motor power over the
	// horizon (Algorithm 1 line 14).
	MotorPowerW []float64
	// OutsideC is the predicted ambient temperature (line 15).
	OutsideC []float64
	// SolarW is the predicted solar thermal load.
	SolarW []float64
}

// Len returns the number of forecast steps.
func (f Forecast) Len() int { return len(f.MotorPowerW) }

// StepContext is everything a controller may observe at one control step.
type StepContext struct {
	// Time is the simulation time in seconds.
	Time float64
	// Dt is the control period in seconds.
	Dt float64
	// CabinTempC is the measured cabin temperature T_z.
	CabinTempC float64
	// OutsideC is the current ambient temperature T_o.
	OutsideC float64
	// SolarW is the current solar thermal load.
	SolarW float64
	// MotorPowerW is the current electrical motor power P_e.
	MotorPowerW float64
	// SoC is the battery state of charge in percent.
	SoC float64
	// TargetC is the desired cabin temperature.
	TargetC float64
	// ComfortLowC and ComfortHighC bound the comfort zone (constraint
	// C2).
	ComfortLowC, ComfortHighC float64
	// Forecast is the preview over the control window (may be empty).
	Forecast Forecast
	// SolverIterBudget, when positive, caps the iterations an optimizing
	// controller may spend on this step (an overloaded ECU or an injected
	// solver-budget fault). Non-optimizing controllers ignore it.
	SolverIterBudget int
	// PackTempC is the measured battery-pack temperature and PackThermal
	// reports whether the simulation runs the cold-climate thermal
	// network (internal/thermal). When PackThermal is false PackTempC is
	// meaningless and controllers must not emit battery heater/chiller
	// commands.
	PackTempC   float64
	PackThermal bool
}

// Controller decides the HVAC inputs for the next control period.
type Controller interface {
	// Name identifies the controller in experiment reports.
	Name() string
	// Decide returns the HVAC inputs to apply over [Time, Time+Dt).
	Decide(ctx StepContext) cabin.Inputs
	// Reset clears internal state (integrators, hysteresis latches)
	// before a new run.
	Reset()
}

// SolveInfo is one Decide call's optimizer diagnostics, for telemetry
// step spans and solver-iteration histograms.
type SolveInfo struct {
	// Iterations is the SQP major-iteration count of the solve.
	Iterations int
	// QPIterations is the accumulated interior-point iteration count of
	// the solve's QP subproblems.
	QPIterations int
	// Status is the solver termination status ("converged", "stalled",
	// ...); empty for controllers without an optimizer.
	Status string
}

// SolveReporter is implemented by optimizing controllers that can
// report the most recent Decide's solver work. The sim engine uses it
// to fill step spans and iteration histograms without knowing the
// controller's concrete type; wrappers (the Supervisor) delegate to the
// stage that produced the applied output.
type SolveReporter interface {
	// LastSolve returns the diagnostics of the last Decide call (the
	// zero value before the first call, or when the active stage has no
	// optimizer).
	LastSolve() SolveInfo
}

// LadderReporter is implemented by supervisory controllers that expose
// which rung of a degradation ladder produced the applied output.
type LadderReporter interface {
	// Level is the active stage index (0 = most capable).
	Level() int
	// ActiveStage is the active stage's name.
	ActiveStage() string
}

// TelemetryBinder is implemented by controllers that can late-bind a
// telemetry sink after construction. The sweep engine builds controllers
// through zero-argument constructors, so it cannot pass each job's
// labeled sink at construction time; the sim engine injects it through
// this interface before the run starts. Binding nil or an inactive sink
// detaches the controller's instruments.
type TelemetryBinder interface {
	BindTelemetry(tel telemetry.Sink)
}

// Snapshotter is implemented by controllers whose mutable state can be
// captured and restored for mid-run checkpointing. StateSnapshot returns
// a self-contained JSON blob of everything Decide mutates — integrators,
// hysteresis latches, warm starts, diagnostics counters — and
// RestoreState replaces that state with a blob taken from an identically
// configured controller, so a restored run continues bit-for-bit from
// where the snapshot was taken. encoding/json round-trips finite
// float64 values exactly, so a blob that passed through a journal on
// disk restores the same bits.
type Snapshotter interface {
	// StateSnapshot serializes the controller's mutable state.
	StateSnapshot() (json.RawMessage, error)
	// RestoreState replaces the controller's mutable state with a blob
	// produced by StateSnapshot. The controller's configuration
	// (gains, models, ladder shape) must match the snapshotting
	// controller's; RestoreState validates only what it can see.
	RestoreState(json.RawMessage) error
}

// HealthReporter is implemented by controllers that can report whether
// their last Decide was internally healthy — e.g. the MPC reports a
// solver that fell back to safe ventilation or ran out of budget. The
// Supervisor treats a non-nil report as a soft fault: the output is
// still used (it passed validation), but repeated reports walk the
// degradation ladder.
type HealthReporter interface {
	// Healthy returns nil when the last Decide was internally sound, or
	// an error describing the internal failure.
	Healthy() error
}

// coolingNeeded reports whether the environment pushes the cabin above
// the target (so the HVAC must cool), based on ambient and solar load.
func coolingNeeded(ctx *StepContext) bool {
	// Solar gain makes mild ambients net-heating; 50 W/K shell
	// conductance is the Default() cabin value and only the sign matters
	// for mode selection here.
	return ctx.OutsideC+ctx.SolarW/50 > ctx.TargetC
}

// The intensity map the fuzzy and PID baselines share: a normalized HVAC
// intensity u ∈ [−1, 1] (negative = heating) sets the supply
// temperature and the air flow at a fixed damper setting.
const (
	// intensityRecirc is the fixed damper setting.
	intensityRecirc = 0.5
	// maxCoolSupplyDropC is the supply-air drop below target at full
	// cooling intensity (u = 1), °C.
	maxCoolSupplyDropC = 16
	// maxHeatSupplyRiseC is the supply-air rise above target at full
	// heating intensity (u = −1), °C.
	maxHeatSupplyRiseC = 28
)

// intensityInputs maps intensity u onto HVAC inputs clamped to the
// actuator limits of m. Air flow scales with |u| above a ventilation
// floor; inside a small dead band around 0 the HVAC only ventilates.
func intensityInputs(m *cabin.Model, ctx *StepContext, u float64) cabin.Inputs {
	p := m.Params()
	mix := m.MixTemp(ctx.OutsideC, ctx.CabinTempC, intensityRecirc)
	mag := u
	if mag < 0 {
		mag = -mag
	}
	mz := p.MinAirFlowKgS + mag*(p.MaxAirFlowKgS-p.MinAirFlowKgS)*0.85
	var in cabin.Inputs
	switch {
	case u > 0.02: // cooling
		ts := ctx.TargetC - u*maxCoolSupplyDropC
		in = cabin.Inputs{SupplyTempC: ts, CoilTempC: ts, Recirc: intensityRecirc, AirFlowKgS: mz}
	case u < -0.02: // heating
		ts := ctx.TargetC - u*maxHeatSupplyRiseC // u negative → rise
		in = cabin.Inputs{SupplyTempC: ts, CoilTempC: mix, Recirc: intensityRecirc, AirFlowKgS: mz}
	default: // idle: ventilate
		in = cabin.Inputs{SupplyTempC: mix, CoilTempC: mix, Recirc: intensityRecirc, AirFlowKgS: p.MinAirFlowKgS}
	}
	m.ClampInputsInPlace(&in, mix)
	return in
}
