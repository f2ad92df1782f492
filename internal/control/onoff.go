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
	// CoolSupplyC is the supply temperature commanded when cooling
	// (default 8 °C).
	CoolSupplyC float64
	// HeatSupplyC is the supply temperature commanded when heating
	// (default 52 °C; the heater power cap reduces it at full fan).
	HeatSupplyC float64
	// OnAirFlowKgS is the fixed fan setting while active (default
	// 0.22 kg/s).
	OnAirFlowKgS float64
	// Recirc is the damper setting in cooling mode (default 0: fresh
	// air, the simple units' AC default).
	Recirc float64
	// HeatRecirc is the damper setting in heating mode (default 0.5:
	// partial recirculation, without which the heater's power limit
	// cannot hold comfort against a cold ambient).
	HeatRecirc float64
	// HysteresisC overrides the switching band half-width; when zero the
	// comfort-zone half-width is used.
	HysteresisC float64

	on   bool
	batt batteryThermostat
}

// NewOnOff returns the baseline with its default operating point: a
// fixed compressor/heater setting at high fan speed, cycling across the
// comfort band — the simple thermostat behaviour of the original units
// [8][9].
func NewOnOff(m *cabin.Model) *OnOff {
	return &OnOff{
		Model:        m,
		CoolSupplyC:  8,
		HeatSupplyC:  52,
		OnAirFlowKgS: 0.22,
		Recirc:       0.0,
		HeatRecirc:   0.5,
	}
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
	band := c.HysteresisC
	if band <= 0 {
		band = (ctx.ComfortHighC - ctx.ComfortLowC) / 2
		if band <= 0 {
			band = 1.5
		}
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

	dr := c.Recirc
	if !cooling {
		dr = c.HeatRecirc
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
			SupplyTempC: c.CoolSupplyC,
			CoilTempC:   c.CoolSupplyC,
			Recirc:      dr,
			AirFlowKgS:  c.OnAirFlowKgS,
		}
	} else {
		in = cabin.Inputs{
			SupplyTempC: c.HeatSupplyC,
			CoilTempC:   mix, // heater only; no cooling coil action
			Recirc:      dr,
			AirFlowKgS:  c.OnAirFlowKgS,
		}
	}
	c.Model.ClampInputsInPlace(&in, mix)
	// Thermostatic battery heating/cooling (no-op without the thermal
	// network) keeps the ladder total in cold-climate simulations.
	c.batt.apply(ctx, &in)
	return in
}
