package control

import (
	"evclimate/internal/cabin"
	"evclimate/internal/units"
)

// PID is a plain proportional–integral–derivative climate controller, the
// implementation substrate the paper notes conventional automotive climate
// control runs on [8][9][10]. It maps the PID actuation u ∈ [−1, 1]
// (negative = heating) onto supply temperature and air flow through the
// fuzzy baseline's intensity map, providing an ablation point between
// On/Off and fuzzy control.
type PID struct {
	// Model supplies actuator limits.
	Model *cabin.Model

	integral float64
	prevErr  float64
	hasPrev  bool
}

// The PID baseline's conservative gains on the temperature error in °C.
// They are typed so that the anti-windup bound 0.5/pidKi rounds exactly
// as the same division at run time would.
const (
	pidKp float64 = 0.5
	pidKi float64 = 0.002
	pidKd float64 = 2.0
)

// NewPID returns the conservatively tuned PID baseline.
func NewPID(m *cabin.Model) *PID {
	return &PID{Model: m}
}

// Name implements Controller.
func (c *PID) Name() string { return "PID" }

// Reset implements Controller.
func (c *PID) Reset() {
	c.integral = 0
	c.prevErr = 0
	c.hasPrev = false
}

// Decide implements Controller.
func (c *PID) Decide(ctx StepContext) cabin.Inputs {
	e := ctx.CabinTempC - ctx.TargetC // positive = too hot = cool
	var de float64
	if c.hasPrev && ctx.Dt > 0 {
		de = (e - c.prevErr) / ctx.Dt
	}
	c.prevErr = e
	c.hasPrev = true
	c.integral += e * ctx.Dt
	// Anti-windup: bound the integral contribution to ±0.5.
	c.integral = units.Clamp(c.integral, -0.5/pidKi, 0.5/pidKi)
	u := units.Clamp(pidKp*e+pidKi*c.integral+pidKd*de, -1, 1)
	return intensityInputs(c.Model, &ctx, u)
}

// Constant applies fixed HVAC inputs every step — useful for plant tests
// and for modeling the "HVAC as constant load" assumption the paper
// criticizes in prior work.
type Constant struct {
	// Model supplies actuator limits.
	Model *cabin.Model
	// Inputs are applied (clamped) every step.
	Inputs cabin.Inputs
}

// Name implements Controller.
func (c *Constant) Name() string { return "Constant" }

// Reset implements Controller.
func (c *Constant) Reset() {}

// Decide implements Controller.
func (c *Constant) Decide(ctx StepContext) cabin.Inputs {
	in, _ := c.Model.ClampForEnvironment(c.Inputs, ctx.OutsideC, ctx.CabinTempC)
	return in
}
