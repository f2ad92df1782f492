package control

import "evclimate/internal/cabin"

// OnOff is the switching On/Off climate-control baseline ([8][9]): a
// hysteresis thermostat that drives the HVAC at a fixed operating point
// whenever the cabin temperature leaves the comfort band and idles it
// (ventilation only) inside the band. This is the reference methodology
// the paper normalizes Figs. 7–8 against.
type OnOff struct {
	// Model supplies actuator limits for clamping.
	Model *cabin.Model

	on   bool
	batt batteryThermostat
}

// The On/Off baseline's operating point: a fixed compressor/heater
// setting at high fan speed, cycling across the comfort band — the
// simple thermostat behaviour of the original units [8][9].
const (
	// onOffCoolSupplyC is the supply temperature commanded when
	// cooling, °C.
	onOffCoolSupplyC = 8
	// onOffHeatSupplyC is the supply temperature commanded when
	// heating, °C; the heater power cap reduces it at full fan.
	onOffHeatSupplyC = 52
	// onOffAirFlowKgS is the fixed fan setting while active.
	onOffAirFlowKgS = 0.22
	// onOffCoolRecirc is the damper setting in cooling mode: fresh air,
	// the simple units' AC default.
	onOffCoolRecirc = 0.0
	// onOffHeatRecirc is the damper setting in heating mode: partial
	// recirculation, without which the heater's power limit cannot hold
	// comfort against a cold ambient.
	onOffHeatRecirc = 0.5
)

// NewOnOff returns the baseline at its fixed operating point.
func NewOnOff(m *cabin.Model) *OnOff {
	return &OnOff{Model: m}
}

// Name implements Controller.
func (c *OnOff) Name() string { return "On/Off" }

// Reset implements Controller.
func (c *OnOff) Reset() { c.on = false; c.batt.reset() }

// Decide implements Controller.
func (c *OnOff) Decide(ctx StepContext) cabin.Inputs {
	return c.decide(&ctx)
}

// decide is Decide over a context pointer: LaneGroup calls it directly
// so a lockstep step does not copy the StepContext per lane.
func (c *OnOff) decide(ctx *StepContext) cabin.Inputs {
	band := (ctx.ComfortHighC - ctx.ComfortLowC) / 2
	if band <= 0 {
		band = 1.5
	}
	cooling := coolingNeeded(ctx)
	// Hysteresis latch swinging across most of the comfort band, with
	// overshoot past the target before the compressor/heater drops out —
	// the characteristic deep temperature ripple of Fig. 5's On/Off
	// trace.
	if cooling {
		if ctx.CabinTempC >= ctx.TargetC+band {
			c.on = true
		} else if ctx.CabinTempC <= ctx.TargetC-band*2/3 {
			c.on = false
		}
	} else {
		if ctx.CabinTempC <= ctx.TargetC-band {
			c.on = true
		} else if ctx.CabinTempC >= ctx.TargetC+band*2/3 {
			c.on = false
		}
	}

	dr := onOffCoolRecirc
	if !cooling {
		dr = onOffHeatRecirc
	}
	mix := c.Model.MixTemp(ctx.OutsideC, ctx.CabinTempC, dr)
	var in cabin.Inputs
	if !c.on {
		// Ventilation only: pass mixed air through at minimum flow.
		in = cabin.Inputs{
			SupplyTempC: mix,
			CoilTempC:   mix,
			Recirc:      dr,
			AirFlowKgS:  c.Model.Params().MinAirFlowKgS,
		}
	} else if cooling {
		in = cabin.Inputs{
			SupplyTempC: onOffCoolSupplyC,
			CoilTempC:   onOffCoolSupplyC,
			Recirc:      dr,
			AirFlowKgS:  onOffAirFlowKgS,
		}
	} else {
		in = cabin.Inputs{
			SupplyTempC: onOffHeatSupplyC,
			CoilTempC:   mix, // heater only; no cooling coil action
			Recirc:      dr,
			AirFlowKgS:  onOffAirFlowKgS,
		}
	}
	c.Model.ClampInputsInPlace(&in, mix)
	// Thermostatic battery heating/cooling (no-op without the thermal
	// network) keeps the ladder total in cold-climate simulations.
	c.batt.apply(ctx, &in)
	return in
}
