package control

import (
	"fmt"
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

	compiled *fuzzy.Compiled
	evalIn   [2]float64
	prevErr  float64
	hasPrev  bool
	batt     batteryThermostat
}

// fuzzyRuleBase is the baseline's fixed rule base, compiled once per
// process; each controller clones the compiled form (shared degree
// tables, private scratch). Its inputs arrive in sorted-name order:
// fuzzyDerrIn, then fuzzyErrIn.
var fuzzyRuleBase = sync.OnceValue(compileFuzzyRuleBase)

const fuzzyDerrIn, fuzzyErrIn = 0, 1

// compileFuzzyRuleBase builds the rule base of [10]: 3×3 rules on
// (error, error rate) → intensity.
func compileFuzzyRuleBase() *fuzzy.Compiled {
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
	c, err := fuzzy.NewSystem(outV, errV, dErrV).
		AddRule(rule("pos", "rising", "coolhard")).
		AddRule(rule("pos", "steady", "coolhard")).
		AddRule(rule("pos", "falling", "cool")).
		AddRule(rule("zero", "rising", "cool")).
		AddRule(rule("zero", "steady", "idle")).
		AddRule(rule("zero", "falling", "heat")).
		AddRule(rule("neg", "rising", "heat")).
		AddRule(rule("neg", "steady", "heathard")).
		AddRule(rule("neg", "falling", "heathard")).
		Compile()
	if err != nil {
		panic("control: fuzzy rule base: " + err.Error())
	}
	if names := c.InputNames(); names[fuzzyDerrIn] != "derr" || names[fuzzyErrIn] != "err" {
		panic(fmt.Sprintf("control: fuzzy rule base inputs %v", names))
	}
	return c
}

// NewFuzzy builds the baseline on the compiled rule base of [10].
func NewFuzzy(m *cabin.Model) *Fuzzy {
	return &Fuzzy{Model: m, compiled: fuzzyRuleBase().Clone()}
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

	c.evalIn[fuzzyErrIn] = e
	c.evalIn[fuzzyDerrIn] = de
	u, err := c.compiled.Evaluate(c.evalIn[:])
	if err != nil {
		u = 0 // rule base covers the universe; defensive fallback
	}
	in := intensityInputs(c.Model, ctx, u)
	// Thermostatic battery heating/cooling (no-op without the thermal
	// network) keeps the ladder total in cold-climate simulations.
	c.batt.apply(ctx, &in)
	return in
}
