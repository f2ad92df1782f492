package control

import (
	"sync"

	"evclimate/internal/cabin"
	"evclimate/internal/fuzzy"
)

// Fuzzy is the fuzzy-based temperature-control baseline ([10], Ibrahim et
// al.): a Mamdani controller on the temperature error and its rate that
// outputs a normalized HVAC intensity, mapped onto air flow and coil
// temperatures. It stabilizes the cabin temperature tightly (Fig. 5's
// flattest trace) without any knowledge of the battery.
type Fuzzy struct {
	// Model supplies actuator limits.
	Model *cabin.Model
	// Recirc is the fixed damper setting (default 0.5).
	Recirc float64
	// MaxCoolSupplyDropC is the supply-air drop below target at full
	// cooling intensity (default 16 °C).
	MaxCoolSupplyDropC float64
	// MaxHeatSupplyRiseC is the supply-air rise above target at full
	// heating intensity (default 28 °C).
	MaxHeatSupplyRiseC float64

	sys      *fuzzy.System
	compiled *fuzzy.Compiled
	evalIn   [2]float64
	prevErr  float64
	hasPrev  bool
	batt     batteryThermostat
}

// The baseline rule base is fixed, so it compiles once per process; each
// controller instance clones the compiled form (shared degree tables,
// private scratch) instead of re-walking maps per step. A compile
// failure — impossible for the static rule base, but handled — leaves
// compiled nil and Decide falls back to the interpreter.
var (
	fuzzyCompileOnce          sync.Once
	fuzzyCompiledBase         *fuzzy.Compiled
	fuzzyErrIdx, fuzzyDerrIdx int
)

// NewFuzzy builds the baseline with the rule base of [10]: 3×3 rules on
// (error, error rate) → intensity.
func NewFuzzy(m *cabin.Model) *Fuzzy {
	// Error: Tz − target, °C. Positive = too hot.
	errV := fuzzy.NewVariable("err", -6, 6).
		AddTerm("neg", fuzzy.Triangle{A: -6, B: -6, C: 0}).
		AddTerm("zero", fuzzy.Triangle{A: -0.8, B: 0, C: 0.8}).
		AddTerm("pos", fuzzy.Triangle{A: 0, B: 6, C: 6})
	// Error rate, °C/s.
	dErrV := fuzzy.NewVariable("derr", -0.2, 0.2).
		AddTerm("falling", fuzzy.Triangle{A: -0.2, B: -0.2, C: 0}).
		AddTerm("steady", fuzzy.Triangle{A: -0.03, B: 0, C: 0.03}).
		AddTerm("rising", fuzzy.Triangle{A: 0, B: 0.2, C: 0.2})
	// Intensity: −1 = full heating, +1 = full cooling.
	outV := fuzzy.NewVariable("u", -1, 1).
		AddTerm("heathard", fuzzy.Triangle{A: -1, B: -1, C: -0.5}).
		AddTerm("heat", fuzzy.Triangle{A: -1, B: -0.5, C: 0}).
		AddTerm("idle", fuzzy.Triangle{A: -0.15, B: 0, C: 0.15}).
		AddTerm("cool", fuzzy.Triangle{A: 0, B: 0.5, C: 1}).
		AddTerm("coolhard", fuzzy.Triangle{A: 0.5, B: 1, C: 1})

	rule := func(e, d, u string) fuzzy.Rule {
		return fuzzy.Rule{
			If:   []fuzzy.Cond{{Var: "err", Term: e}, {Var: "derr", Term: d}},
			Then: fuzzy.Cond{Var: "u", Term: u},
		}
	}
	sys := fuzzy.NewSystem(outV, errV, dErrV).
		AddRule(rule("pos", "rising", "coolhard")).
		AddRule(rule("pos", "steady", "coolhard")).
		AddRule(rule("pos", "falling", "cool")).
		AddRule(rule("zero", "rising", "cool")).
		AddRule(rule("zero", "steady", "idle")).
		AddRule(rule("zero", "falling", "heat")).
		AddRule(rule("neg", "rising", "heat")).
		AddRule(rule("neg", "steady", "heathard")).
		AddRule(rule("neg", "falling", "heathard"))

	fuzzyCompileOnce.Do(func() {
		c, err := sys.Compile()
		if err != nil {
			return
		}
		for i, name := range c.InputNames() {
			switch name {
			case "err":
				fuzzyErrIdx = i
			case "derr":
				fuzzyDerrIdx = i
			}
		}
		fuzzyCompiledBase = c
	})
	f := &Fuzzy{
		Model:              m,
		Recirc:             0.5,
		MaxCoolSupplyDropC: 16,
		MaxHeatSupplyRiseC: 28,
		sys:                sys,
	}
	if fuzzyCompiledBase != nil {
		f.compiled = fuzzyCompiledBase.Clone()
	}
	return f
}

// Name implements Controller.
func (c *Fuzzy) Name() string { return "Fuzzy-based" }

// Reset implements Controller.
func (c *Fuzzy) Reset() {
	c.prevErr = 0
	c.hasPrev = false
	c.batt.reset()
}

// Decide implements Controller.
func (c *Fuzzy) Decide(ctx StepContext) cabin.Inputs {
	return c.decide(&ctx)
}

// decide is Decide over a context pointer: LaneGroup calls it directly
// so a lockstep step does not copy the StepContext per lane.
func (c *Fuzzy) decide(ctx *StepContext) cabin.Inputs {
	e := ctx.CabinTempC - ctx.TargetC
	var de float64
	if c.hasPrev && ctx.Dt > 0 {
		de = (e - c.prevErr) / ctx.Dt
	}
	c.prevErr = e
	c.hasPrev = true

	var u float64
	var err error
	if c.compiled != nil {
		c.evalIn[fuzzyErrIdx] = e
		c.evalIn[fuzzyDerrIdx] = de
		u, err = c.compiled.Evaluate(c.evalIn[:])
	} else {
		u, err = c.sys.Evaluate(map[string]float64{"err": e, "derr": de})
	}
	if err != nil {
		u = 0 // rule base covers the universe; defensive fallback
	}

	p := c.Model.Params()
	mix := c.Model.MixTemp(ctx.OutsideC, ctx.CabinTempC, c.Recirc)
	mag := u
	if mag < 0 {
		mag = -mag
	}
	// Air flow scales with intensity; a small floor keeps ventilation.
	mz := p.MinAirFlowKgS + mag*(p.MaxAirFlowKgS-p.MinAirFlowKgS)*0.85
	var in cabin.Inputs
	switch {
	case u > 0.02: // cooling
		ts := ctx.TargetC - u*c.MaxCoolSupplyDropC
		in = cabin.Inputs{SupplyTempC: ts, CoilTempC: ts, Recirc: c.Recirc, AirFlowKgS: mz}
	case u < -0.02: // heating
		ts := ctx.TargetC - u*c.MaxHeatSupplyRiseC // u negative → rise
		in = cabin.Inputs{SupplyTempC: ts, CoilTempC: mix, Recirc: c.Recirc, AirFlowKgS: mz}
	default: // idle: ventilate
		in = cabin.Inputs{SupplyTempC: mix, CoilTempC: mix, Recirc: c.Recirc, AirFlowKgS: p.MinAirFlowKgS}
	}
	c.Model.ClampInputsInPlace(&in, mix)
	// Thermostatic battery heating/cooling (no-op without the thermal
	// network) keeps the ladder total in cold-climate simulations.
	c.batt.apply(ctx, &in)
	return in
}
