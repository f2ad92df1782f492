// Package faults is the deterministic fault-injection layer: seeded,
// schedulable injectors that corrupt what the controller observes — the
// sensor readings, the motor-power/ambient preview, and the solver budget
// — while the plant keeps evolving on the true signals. The paper (and
// the related MPC literature it builds on) evaluates controllers under
// perfect sensing and preview; this package creates the broken-sensing
// regimes a production controller must survive, in a form the sweep
// engine can replay bit-identically.
//
// Determinism contract: every random draw is a pure function of the
// injector seed, the control-step index, and a per-fault salt (splitmix64
// finalizer). No shared RNG state exists, so a fault run replays
// bit-identically for any worker count, and two injectors built from the
// same Spec and seed produce the same fault sequence. The only mutable
// state is the hold-last buffer of dropout faults, which depends solely
// on the (deterministic) sequence of observed values.
package faults

import (
	"fmt"
	"math"

	"evclimate/internal/control"
)

// Signal names a controller observation a sensor fault corrupts.
type Signal int

const (
	// CabinTemp is the measured cabin temperature T_z.
	CabinTemp Signal = iota
	// OutsideTemp is the measured ambient temperature T_o.
	OutsideTemp
	// SoC is the reported battery state of charge.
	SoC
)

// String implements fmt.Stringer.
func (s Signal) String() string {
	switch s {
	case CabinTemp:
		return "cabin-temp"
	case OutsideTemp:
		return "outside-temp"
	case SoC:
		return "soc"
	default:
		return fmt.Sprintf("signal(%d)", int(s))
	}
}

// Mode is the corruption a sensor fault applies inside its window.
type Mode int

const (
	// Dropout holds the last pre-fault reading (a frozen sensor bus);
	// Rate, when in (0, 1), makes the dropout intermittent — each step
	// drops independently with that probability.
	Dropout Mode = iota
	// StuckAt replaces the reading with Value.
	StuckAt
	// Bias adds Value to the reading.
	Bias
	// Noise adds zero-mean Gaussian noise with standard deviation Value.
	Noise
	// Quantize rounds the reading to multiples of Value (a coarse ADC).
	Quantize
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Dropout:
		return "dropout"
	case StuckAt:
		return "stuck-at"
	case Bias:
		return "bias"
	case Noise:
		return "noise"
	case Quantize:
		return "quantize"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Window is a half-open activity interval [StartS, EndS) in simulation
// seconds. A zero window (both bounds zero) is always active.
type Window struct {
	StartS, EndS float64
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool {
	if w.StartS == 0 && w.EndS == 0 {
		return true
	}
	return t >= w.StartS && t < w.EndS
}

// SensorFault corrupts one observed signal inside its window.
type SensorFault struct {
	// Signal is the observation to corrupt.
	Signal Signal
	// Mode is the corruption kind.
	Mode Mode
	// Value parameterizes the mode: the stuck value (StuckAt), the offset
	// (Bias), the standard deviation (Noise), or the quantum (Quantize).
	// Dropout ignores it.
	Value float64
	// Rate, for Dropout, is the per-step probability of dropping; 0 or 1
	// drops every step of the window.
	Rate float64
	// Window bounds the fault's activity.
	Window Window
}

// ForecastMode is the corruption a forecast fault applies.
type ForecastMode int

const (
	// ForecastLoss removes the preview entirely (the telematics link is
	// down): the controller sees an empty Forecast.
	ForecastLoss ForecastMode = iota
	// ForecastTruncate keeps only the first Keep preview steps.
	ForecastTruncate
	// ForecastCorrupt adds zero-mean Gaussian noise with standard
	// deviation SigmaW to the motor-power preview (a wrong traffic/route
	// prediction), leaving ambient and solar untouched.
	ForecastCorrupt
)

// String implements fmt.Stringer.
func (m ForecastMode) String() string {
	switch m {
	case ForecastLoss:
		return "forecast-loss"
	case ForecastTruncate:
		return "forecast-truncate"
	case ForecastCorrupt:
		return "forecast-corrupt"
	default:
		return fmt.Sprintf("forecast-mode(%d)", int(m))
	}
}

// ForecastFault corrupts the preview inside its window.
type ForecastFault struct {
	// Mode is the corruption kind.
	Mode ForecastMode
	// Keep is the number of preview steps ForecastTruncate retains.
	Keep int
	// SigmaW is the ForecastCorrupt noise standard deviation in watts.
	SigmaW float64
	// Window bounds the fault's activity.
	Window Window
}

// SolverFault exhausts the optimizer's budget inside its window: the
// controller is told it has at most MaxIter solver iterations for the
// step (an overloaded ECU). Iteration caps — not wall-clock — keep fault
// runs deterministic.
type SolverFault struct {
	// MaxIter is the per-step iteration budget imposed (≥ 1).
	MaxIter int
	// Window bounds the fault's activity.
	Window Window
}

// Spec is a declarative, pure-data fault scenario: it can be hashed,
// printed, and shared between jobs; New instantiates the stateful
// injector that applies it.
type Spec struct {
	// Name labels the scenario in job results and reports.
	Name string
	// Sensor, Forecast, and Solver are the scheduled faults.
	Sensor   []SensorFault
	Forecast []ForecastFault
	Solver   []SolverFault
}

// Empty reports whether the spec schedules no faults at all.
func (s *Spec) Empty() bool {
	return s == nil || (len(s.Sensor) == 0 && len(s.Forecast) == 0 && len(s.Solver) == 0)
}

// New builds a fresh injector for one run. Injectors are stateful (the
// dropout hold-last buffer) and must not be shared between concurrent
// runs; the same (spec, seed) pair always yields an identical fault
// sequence.
func (s Spec) New(seed int64) *Injector {
	inj := &Injector{spec: s, seed: seed}
	inj.Reset()
	return inj
}

// Injector applies a Spec's faults to successive control steps.
type Injector struct {
	spec Spec
	seed int64
	held [3]float64 // hold-last buffer per Signal
	have [3]bool
}

// ActiveAt counts the scheduled faults whose windows contain simulation
// time t — the telemetry step span's "faults active" figure. It counts
// scheduled activity, not effect: a Dropout that happens to pass this
// step still counts while its window is open.
func (inj *Injector) ActiveAt(t float64) int {
	if inj == nil {
		return 0
	}
	n := 0
	for i := range inj.spec.Sensor {
		if inj.spec.Sensor[i].Window.Contains(t) {
			n++
		}
	}
	for i := range inj.spec.Forecast {
		if inj.spec.Forecast[i].Window.Contains(t) {
			n++
		}
	}
	for i := range inj.spec.Solver {
		if inj.spec.Solver[i].Window.Contains(t) {
			n++
		}
	}
	return n
}

// Reset clears the hold-last state before a new run.
func (inj *Injector) Reset() {
	inj.held = [3]float64{}
	inj.have = [3]bool{}
}

// InjectorState is the injector's serializable mutable state — the
// dropout hold-last buffer, the only state an injector carries (the spec
// and seed live in the run configuration). Restoring it into an injector
// built from the same (spec, seed) pair resumes the fault sequence
// bit-for-bit mid-run.
type InjectorState struct {
	// Held is the last good reading per Signal; Have marks which entries
	// are populated.
	Held [3]float64 `json:"held"`
	Have [3]bool    `json:"have"`
}

// State captures the injector state for checkpointing.
func (inj *Injector) State() InjectorState {
	return InjectorState{Held: inj.held, Have: inj.have}
}

// SetState replaces the injector state with a snapshot.
func (inj *Injector) SetState(st InjectorState) {
	inj.held = st.Held
	inj.have = st.Have
}

// splitmix64 is the SplitMix64 finalizer, the same mixer the sweep
// engine uses for per-job seeds.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// draw returns a deterministic uint64 for (seed, step, salt).
func (inj *Injector) draw(step, salt uint64) uint64 {
	return splitmix64(splitmix64(uint64(inj.seed)^salt) + 0x632BE59BD9B4E019*(step+1))
}

// uniform maps a draw onto [0, 1).
func uniform(u uint64) float64 {
	return float64(u>>11) / (1 << 53)
}

// gauss returns a standard normal deviate from two independent draws
// (Box–Muller).
func gauss(u1, u2 uint64) float64 {
	a := uniform(u1)
	if a <= 0 {
		a = math.SmallestNonzeroFloat64
	}
	return math.Sqrt(-2*math.Log(a)) * math.Cos(2*math.Pi*uniform(u2))
}

// signalValue reads the faulted signal from the context.
func signalValue(ctx *control.StepContext, s Signal) float64 {
	switch s {
	case CabinTemp:
		return ctx.CabinTempC
	case OutsideTemp:
		return ctx.OutsideC
	default:
		return ctx.SoC
	}
}

// setSignal writes the faulted signal back.
func setSignal(ctx *control.StepContext, s Signal, v float64) {
	switch s {
	case CabinTemp:
		ctx.CabinTempC = v
	case OutsideTemp:
		ctx.OutsideC = v
	default:
		ctx.SoC = v
	}
}

// Apply corrupts the controller's view of step `step` in place. The
// caller passes the true observations; after Apply the context holds
// what the (faulted) sensors and preview report. Apply must be called
// exactly once per control step, in step order, for the hold-last state
// to track the last good reading.
func (inj *Injector) Apply(step int, ctx *control.StepContext) {
	t := ctx.Time
	u := uint64(step)

	// Sensor faults. Hold-last tracking runs every step so a dropout
	// window opening at t holds the last pre-window reading.
	for fi := range inj.spec.Sensor {
		f := &inj.spec.Sensor[fi]
		salt := uint64(0xA11CE+fi) << 8
		active := f.Window.Contains(t)
		switch f.Mode {
		case Dropout:
			drop := active
			if active && f.Rate > 0 && f.Rate < 1 {
				drop = uniform(inj.draw(u, salt)) < f.Rate
			}
			if drop && inj.have[f.Signal] {
				setSignal(ctx, f.Signal, inj.held[f.Signal])
			} else {
				inj.held[f.Signal] = signalValue(ctx, f.Signal)
				inj.have[f.Signal] = true
			}
		case StuckAt:
			if active {
				setSignal(ctx, f.Signal, f.Value)
			}
		case Bias:
			if active {
				setSignal(ctx, f.Signal, signalValue(ctx, f.Signal)+f.Value)
			}
		case Noise:
			if active {
				n := gauss(inj.draw(u, salt), inj.draw(u, salt^0xFACADE))
				setSignal(ctx, f.Signal, signalValue(ctx, f.Signal)+f.Value*n)
			}
		case Quantize:
			if active && f.Value > 0 {
				v := signalValue(ctx, f.Signal)
				setSignal(ctx, f.Signal, math.Round(v/f.Value)*f.Value)
			}
		}
	}

	// Forecast faults.
	for fi := range inj.spec.Forecast {
		f := &inj.spec.Forecast[fi]
		if !f.Window.Contains(t) {
			continue
		}
		switch f.Mode {
		case ForecastLoss:
			ctx.Forecast = control.Forecast{}
		case ForecastTruncate:
			keep := f.Keep
			if keep < 0 {
				keep = 0
			}
			if keep < ctx.Forecast.Len() {
				ctx.Forecast.MotorPowerW = ctx.Forecast.MotorPowerW[:keep]
				ctx.Forecast.OutsideC = ctx.Forecast.OutsideC[:keep]
				ctx.Forecast.SolarW = ctx.Forecast.SolarW[:keep]
			}
		case ForecastCorrupt:
			if ctx.Forecast.Len() == 0 || f.SigmaW <= 0 {
				break
			}
			salt := uint64(0xF0CA57+fi) << 8
			// Copy before corrupting: the forecast slices are shared with
			// the simulation's preview builder.
			mp := make([]float64, len(ctx.Forecast.MotorPowerW))
			for k, v := range ctx.Forecast.MotorPowerW {
				n := gauss(inj.draw(u, salt+uint64(k)), inj.draw(u, salt+uint64(k)^0xBEEF))
				mp[k] = v + f.SigmaW*n
			}
			ctx.Forecast.MotorPowerW = mp
		}
	}

	// Solver-budget faults: the tightest active budget wins.
	for fi := range inj.spec.Solver {
		f := &inj.spec.Solver[fi]
		if !f.Window.Contains(t) || f.MaxIter <= 0 {
			continue
		}
		if ctx.SolverIterBudget == 0 || f.MaxIter < ctx.SolverIterBudget {
			ctx.SolverIterBudget = f.MaxIter
		}
	}
}
