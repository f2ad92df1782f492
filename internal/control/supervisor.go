package control

import (
	"errors"
	"fmt"
	"math"

	"evclimate/internal/cabin"
	"evclimate/internal/telemetry"
)

// Supervisor wraps a ladder of controllers with a watchdog: every output
// is validated against the plant's actuator envelope before it is
// applied, internal controller failures (panics, solver breakdowns,
// budget exhaustion) are caught, and persistent trouble walks a
// degradation ladder from the most capable stage down to a safe mode —
// then back up after sustained clean operation. It is the recovery
// structure the one-shot safe-ventilation fallback inside the MPC lacks:
// the MPC's fallback handles one bad solve, the Supervisor handles a bad
// afternoon.
//
// Fault taxonomy:
//
//   - Hard fault: the stage panicked or produced a non-finite or
//     constraint-violating output. The output is never applied; the
//     Supervisor demotes immediately and re-decides with the next stage
//     in the same step, cascading until an output validates (the bottom
//     stage's output is clamped into the envelope as a last resort, so
//     Decide always returns a safe, finite input vector).
//   - Soft fault: the stage's output validated but the stage reported
//     itself unhealthy (HealthReporter), e.g. the MPC's solver ran out
//     of budget. The output is applied, and DemoteAfter consecutive
//     soft faults demote one stage — the hysteresis that keeps a single
//     slow solve from abandoning the MPC.
//
// Re-promotion is staged: after PromoteAfter consecutive clean steps the
// Supervisor moves up one stage, resets it (a cold restart — its warm
// state is stale by now), and requires another full clean streak before
// the next promotion.
type Supervisor struct {
	name   string
	stages []Stage
	model  *cabin.Model
	cfg    SupervisorConfig

	st ladderState

	// Telemetry instruments, resolved once at construction (nil = no-op
	// when no sink is configured).
	telHard, telSoft []*telemetry.Counter // per stage
	telDemote        *telemetry.Counter
	telPromote       *telemetry.Counter
	telLevel         *telemetry.Gauge
}

// ladderState is the Supervisor's own mutable state: the ladder
// position, the hysteresis streaks, the step count, the transition log,
// and the sanitizer's hold-last buffer. StateSnapshot serializes it
// whole, and Reset zeroes it.
type ladderState struct {
	Level       int          `json:"level"`
	SoftStreak  int          `json:"soft_streak"`
	CleanStreak int          `json:"clean_streak"`
	Step        int          `json:"step"`
	Transitions []Transition `json:"transitions,omitempty"`
	LastGood    [3]float64   `json:"last_good"` // last finite CabinTempC, OutsideC, SoC
	HaveGood    bool         `json:"have_good"`
}

// Stage is one rung of the degradation ladder, most capable first.
type Stage struct {
	// Name labels the stage in transitions and counters.
	Name string
	// Controller produces the stage's decisions.
	Controller Controller
}

// Output validation: validationTol is the constraint-check tolerance
// handed to cabin.Model.CheckInputs, and exclusionSlackW the power slack,
// in watts, on the heater/cooler mutual-exclusion check (mirroring
// sim.Tolerances.ActuatorSlack).
const (
	validationTol   = 1e-6
	exclusionSlackW = 10
)

// SupervisorConfig tunes the watchdog.
type SupervisorConfig struct {
	// Cabin is the actuator envelope outputs are validated against. The
	// zero value uses cabin.Default().
	Cabin cabin.Params
	// DemoteAfter is the number of consecutive soft faults that demotes
	// one stage (default 3). Hard faults always demote immediately.
	DemoteAfter int
	// PromoteAfter is the number of consecutive clean steps required
	// before re-promoting one stage (default 45).
	PromoteAfter int
	// Telemetry, when non-nil and active, receives ladder metrics:
	// per-stage hard/soft fault counters, demote/promote transition
	// counters, and the active-level gauge.
	Telemetry telemetry.Sink
}

func (c *SupervisorConfig) fill() {
	if c.Cabin == (cabin.Params{}) {
		c.Cabin = cabin.Default()
	}
	if c.DemoteAfter <= 0 {
		c.DemoteAfter = 3
	}
	if c.PromoteAfter <= 0 {
		c.PromoteAfter = 45
	}
}

// Transition records one ladder move.
type Transition struct {
	// Step is the control-step index of the move; Time the simulation
	// time handed to Decide.
	Step int
	Time float64
	// From and To are stage indices (To > From is a demotion).
	From, To int
	// Reason describes the triggering fault, or "recovered" for a
	// promotion.
	Reason string
}

// NewSupervisor builds a Supervisor over the given ladder. At least one
// stage is required; stage 0 is the most capable, the last stage the
// safest.
func NewSupervisor(name string, cfg SupervisorConfig, stages ...Stage) (*Supervisor, error) {
	if len(stages) == 0 {
		return nil, errors.New("control: supervisor needs at least one stage")
	}
	cfg.fill()
	m, err := cabin.New(cfg.Cabin)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = "Supervised " + stages[0].Controller.Name()
	}
	s := &Supervisor{name: name, stages: stages, model: m, cfg: cfg}
	s.bindInstruments(cfg.Telemetry)
	return s, nil
}

// bindInstruments (re)resolves the ladder's instruments on the given
// sink, detaching them when the sink is nil or inactive.
func (s *Supervisor) bindInstruments(tel telemetry.Sink) {
	s.telHard, s.telSoft = nil, nil
	s.telDemote, s.telPromote, s.telLevel = nil, nil, nil
	if tel == nil || !tel.Active() {
		return
	}
	s.telHard = make([]*telemetry.Counter, len(s.stages))
	s.telSoft = make([]*telemetry.Counter, len(s.stages))
	for i := range s.stages {
		stage := telemetry.L("stage", s.stages[i].Name)
		s.telHard[i] = tel.Counter("supervisor_hard_faults_total", stage)
		s.telSoft[i] = tel.Counter("supervisor_soft_faults_total", stage)
	}
	s.telDemote = tel.Counter("supervisor_transitions_total", telemetry.L("kind", "demote"))
	s.telPromote = tel.Counter("supervisor_transitions_total", telemetry.L("kind", "promote"))
	s.telLevel = tel.Gauge("supervisor_level")
}

// BindTelemetry implements TelemetryBinder: the ladder's metrics move to
// the given sink, and every stage that can itself bind telemetry is
// rebound under its stage label.
func (s *Supervisor) BindTelemetry(tel telemetry.Sink) {
	s.cfg.Telemetry = tel
	s.bindInstruments(tel)
	for i := range s.stages {
		if b, ok := s.stages[i].Controller.(TelemetryBinder); ok {
			b.BindTelemetry(telemetry.WithLabels(tel, telemetry.L("stage", s.stages[i].Name)))
		}
	}
}

// LastSolve implements SolveReporter by delegating to the stage that is
// currently active (the zero value when that stage has no optimizer).
func (s *Supervisor) LastSolve() SolveInfo {
	if sr, ok := s.stages[s.st.Level].Controller.(SolveReporter); ok {
		return sr.LastSolve()
	}
	return SolveInfo{}
}

// Name implements Controller.
func (s *Supervisor) Name() string { return s.name }

// Reset implements Controller: it resets every stage and returns to the
// top of the ladder.
func (s *Supervisor) Reset() {
	for i := range s.stages {
		s.stages[i].Controller.Reset()
	}
	s.st = ladderState{}
}

// Level returns the active stage index (0 = most capable).
func (s *Supervisor) Level() int { return s.st.Level }

// ActiveStage returns the active stage's name.
func (s *Supervisor) ActiveStage() string { return s.stages[s.st.Level].Name }

// Transitions returns the ladder moves since the last Reset. The slice
// is the Supervisor's own; treat it as read-only.
func (s *Supervisor) Transitions() []Transition { return s.st.Transitions }

// sanitize replaces non-finite observations with the last finite ones
// (or the target, before any finite reading arrived), so a totally
// broken sensor cannot push NaN through a stage controller's arithmetic.
func (s *Supervisor) sanitize(ctx *StepContext) {
	vals := [3]*float64{&ctx.CabinTempC, &ctx.OutsideC, &ctx.SoC}
	defaults := [3]float64{ctx.TargetC, ctx.TargetC, 50}
	for i, v := range vals {
		if math.IsNaN(*v) || math.IsInf(*v, 0) {
			if s.st.HaveGood {
				*v = s.st.LastGood[i]
			} else {
				*v = defaults[i]
			}
		}
	}
	for _, f := range [][]float64{ctx.Forecast.MotorPowerW, ctx.Forecast.OutsideC, ctx.Forecast.SolarW} {
		for _, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				ctx.Forecast = Forecast{}
				break
			}
		}
	}
	s.st.LastGood = [3]float64{ctx.CabinTempC, ctx.OutsideC, ctx.SoC}
	s.st.HaveGood = true
}

// validate checks one stage output against the plant envelope: finite
// fields, the C1/C3–C10 constraint set, and heater/cooler mutual
// exclusion (the same rules sim.CheckInvariants applies to the trace).
func (s *Supervisor) validate(in cabin.Inputs, ctx *StepContext) error {
	// Ordered (not a map) so a multi-field failure reports the same
	// first violation every run — transition reasons are replayable.
	fields := [6]struct {
		name string
		v    float64
	}{
		{"supply", in.SupplyTempC}, {"coil", in.CoilTempC},
		{"recirc", in.Recirc}, {"flow", in.AirFlowKgS},
		{"battery-heater", in.BattHeatW}, {"battery-chiller", in.BattChillW},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("control: non-finite %s input: %v", f.name, f.v)
		}
	}
	if in.BattHeatW < 0 || in.BattChillW < 0 {
		return fmt.Errorf("control: negative battery thermal command (heat %.1f W, chill %.1f W)", in.BattHeatW, in.BattChillW)
	}
	mix := s.model.MixTemp(ctx.OutsideC, ctx.CabinTempC, in.Recirc)
	if err := s.model.CheckInputs(in, mix, validationTol); err != nil {
		return err
	}
	pw := s.model.PowersFor(in, mix)
	if pw.HeaterW > exclusionSlackW && pw.CoolerW > exclusionSlackW {
		return fmt.Errorf("control: heater (%.1f W) and cooler (%.1f W) simultaneously active", pw.HeaterW, pw.CoolerW)
	}
	return nil
}

// try runs one stage's Decide with panic isolation.
func (s *Supervisor) try(level int, ctx StepContext) (in cabin.Inputs, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("control: stage %q panicked: %v", s.stages[level].Name, r)
		}
	}()
	return s.stages[level].Controller.Decide(ctx), nil
}

// move records a ladder transition and activates the target stage.
// Promotions cold-restart the target; demotions keep the target's state
// (it may have been recently active and warm).
func (s *Supervisor) move(to int, ctx *StepContext, reason string) {
	s.st.Transitions = append(s.st.Transitions, Transition{
		Step: s.st.Step, Time: ctx.Time, From: s.st.Level, To: to, Reason: reason,
	})
	if to < s.st.Level {
		s.stages[to].Controller.Reset()
		s.telPromote.Inc()
	} else {
		s.telDemote.Inc()
	}
	s.st.Level = to
	s.telLevel.Set(float64(to))
	s.st.SoftStreak = 0
	s.st.CleanStreak = 0
}

// Decide implements Controller: it consults the active stage, validates
// the output, and walks the ladder on faults. The returned inputs are
// always finite and inside the actuator envelope.
func (s *Supervisor) Decide(ctx StepContext) cabin.Inputs {
	s.sanitize(&ctx)

	// Walk down until a stage produces a valid output.
	var in cabin.Inputs
	valid := false
	for {
		out, err := s.try(s.st.Level, ctx)
		if err == nil {
			err = s.validate(out, &ctx)
		}
		if err == nil {
			in = out
			valid = true
			break
		}
		if s.telHard != nil {
			s.telHard[s.st.Level].Inc()
		}
		if s.st.Level == len(s.stages)-1 {
			// Bottom of the ladder: clamp its output into the envelope
			// (or synthesize safe ventilation if it was non-finite).
			in = s.lastResort(out, &ctx)
			break
		}
		s.move(s.st.Level+1, &ctx, fmt.Sprintf("hard fault: %v", err))
	}

	// Soft-fault watchdog: the output was applied, but the stage reports
	// internal trouble.
	var soft error
	if hr, ok := s.stages[s.st.Level].Controller.(HealthReporter); ok && valid {
		soft = hr.Healthy()
	}
	if soft != nil {
		if s.telSoft != nil {
			s.telSoft[s.st.Level].Inc()
		}
		s.st.SoftStreak++
		s.st.CleanStreak = 0
		if s.st.SoftStreak >= s.cfg.DemoteAfter && s.st.Level < len(s.stages)-1 {
			s.move(s.st.Level+1, &ctx, fmt.Sprintf("soft faults x%d: %v", s.st.SoftStreak, soft))
		}
	} else if valid {
		s.st.SoftStreak = 0
		s.st.CleanStreak++
		if s.st.CleanStreak >= s.cfg.PromoteAfter && s.st.Level > 0 {
			s.move(s.st.Level-1, &ctx, "recovered")
		}
	}

	s.st.Step++
	return in
}

// lastResort forces any output into a safe, finite input vector: clamp
// into the envelope when finite, otherwise minimum-flow ventilation of
// the current air mix.
func (s *Supervisor) lastResort(in cabin.Inputs, ctx *StepContext) cabin.Inputs {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(in.SupplyTempC) || !finite(in.CoilTempC) || !finite(in.Recirc) || !finite(in.AirFlowKgS) {
		dr := s.model.Params().MaxRecirc / 2
		mix := s.model.MixTemp(ctx.OutsideC, ctx.CabinTempC, dr)
		in = cabin.Inputs{SupplyTempC: mix, CoilTempC: mix, Recirc: dr, AirFlowKgS: s.model.Params().MinAirFlowKgS}
	}
	out, _ := s.model.ClampForEnvironment(in, ctx.OutsideC, ctx.CabinTempC)
	return out
}
