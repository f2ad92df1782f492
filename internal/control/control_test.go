package control

import (
	"math"
	"testing"

	"evclimate/internal/cabin"
)

func model(t *testing.T) *cabin.Model {
	t.Helper()
	m, err := cabin.New(cabin.Default())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func hotCtx(cabinC float64) StepContext {
	return StepContext{
		Time: 0, Dt: 1,
		CabinTempC: cabinC, OutsideC: 35, SolarW: 400,
		TargetC: 24, ComfortLowC: 21, ComfortHighC: 27,
	}
}

func coldCtx(cabinC float64) StepContext {
	return StepContext{
		Time: 0, Dt: 1,
		CabinTempC: cabinC, OutsideC: 0, SolarW: 0,
		TargetC: 24, ComfortLowC: 21, ComfortHighC: 27,
	}
}

func TestOnOffLatchesOnWhenHot(t *testing.T) {
	m := model(t)
	c := NewOnOff(m)
	c.Reset()
	in := c.Decide(hotCtx(30))
	// Cooling: supply at the cold setpoint, full configured flow.
	if in.SupplyTempC > 15 {
		t.Errorf("supply = %v, want cold", in.SupplyTempC)
	}
	if in.AirFlowKgS < 0.15 {
		t.Errorf("flow = %v, want high", in.AirFlowKgS)
	}
	// Stays on just above the release point.
	in = c.Decide(hotCtx(24))
	if in.AirFlowKgS < 0.15 {
		t.Error("released too early (no hysteresis)")
	}
	// Releases after overshooting to target − 2/3·band (band = 3 here).
	in = c.Decide(hotCtx(21.9))
	if in.AirFlowKgS > m.Params().MinAirFlowKgS+1e-9 {
		t.Errorf("did not release at 21.9 °C: flow %v", in.AirFlowKgS)
	}
}

func TestOnOffHeatsWhenCold(t *testing.T) {
	m := model(t)
	c := NewOnOff(m)
	c.Reset()
	in := c.Decide(coldCtx(18))
	// The commanded 52 °C supply is reduced by the heater power cap:
	// heating 0.22 kg/s of 0 °C fresh air allows only ≈ 24 °C supply at
	// 6 kW. It must still be above the cabin temperature.
	if in.SupplyTempC < 21 {
		t.Errorf("supply = %v, want above cabin", in.SupplyTempC)
	}
	pw := m.PowersFor(in, m.MixTemp(0, 18, in.Recirc))
	if pw.HeaterW < 0.9*m.Params().MaxHeaterPowerW {
		t.Errorf("heater at %v W, want near its %v W limit", pw.HeaterW, m.Params().MaxHeaterPowerW)
	}
	// Heating uses the heater only: coil stays at the mix temperature.
	mix := m.MixTemp(0, 18, in.Recirc)
	if math.Abs(in.CoilTempC-math.Max(mix, m.Params().MinCoilTempC)) > 3 {
		t.Errorf("coil = %v, want ≈ mix %v (no cooling while heating)", in.CoilTempC, mix)
	}
}

func TestOnOffVentilatesInsideBand(t *testing.T) {
	m := model(t)
	c := NewOnOff(m)
	c.Reset()
	in := c.Decide(hotCtx(24))
	if in.AirFlowKgS > m.Params().MinAirFlowKgS+1e-9 {
		t.Errorf("flow inside band = %v, want min", in.AirFlowKgS)
	}
	pw := m.PowersFor(in, m.MixTemp(35, 24, in.Recirc))
	if pw.HeaterW+pw.CoolerW > 1 {
		t.Errorf("coil power inside band = %v, want ~0", pw.HeaterW+pw.CoolerW)
	}
}

func TestOnOffRespectsConstraints(t *testing.T) {
	m := model(t)
	c := NewOnOff(m)
	for _, tz := range []float64{-10, 0, 20, 24, 30, 45} {
		for _, ctx := range []StepContext{hotCtx(tz), coldCtx(tz)} {
			in := c.Decide(ctx)
			mix := m.MixTemp(ctx.OutsideC, tz, in.Recirc)
			if err := m.CheckInputs(in, mix, 1e-6); err != nil {
				t.Errorf("Tz=%v: %v", tz, err)
			}
		}
	}
}

func TestFuzzyProportionalResponse(t *testing.T) {
	m := model(t)
	c := NewFuzzy(m)
	c.Reset()
	// Far above target: hard cooling.
	far := c.Decide(hotCtx(32))
	c.Reset()
	near := c.Decide(hotCtx(25))
	pwFar := m.PowersFor(far, m.MixTemp(35, 32, far.Recirc)).Total()
	pwNear := m.PowersFor(near, m.MixTemp(35, 25, near.Recirc)).Total()
	if pwFar <= pwNear {
		t.Errorf("fuzzy not proportional: far %v W ≤ near %v W", pwFar, pwNear)
	}
}

func TestFuzzyHeatsAndCools(t *testing.T) {
	m := model(t)
	c := NewFuzzy(m)
	c.Reset()
	cool := c.Decide(hotCtx(30))
	if cool.SupplyTempC >= 24 {
		t.Errorf("cooling supply %v, want below target", cool.SupplyTempC)
	}
	c.Reset()
	heat := c.Decide(coldCtx(18))
	if heat.SupplyTempC <= 24 {
		t.Errorf("heating supply %v, want above target", heat.SupplyTempC)
	}
}

func TestFuzzyIdleNearTarget(t *testing.T) {
	m := model(t)
	c := NewFuzzy(m)
	c.Reset()
	// Two consecutive steps at exactly the target with no trend.
	c.Decide(hotCtx(24))
	in := c.Decide(hotCtx(24))
	if in.AirFlowKgS > 0.08 {
		t.Errorf("flow near target = %v, want near minimum", in.AirFlowKgS)
	}
}

func TestFuzzyConstraintsAlwaysSatisfied(t *testing.T) {
	m := model(t)
	c := NewFuzzy(m)
	c.Reset()
	for tz := -5.0; tz <= 45; tz += 2.5 {
		for _, ctx := range []StepContext{hotCtx(tz), coldCtx(tz)} {
			in := c.Decide(ctx)
			mix := m.MixTemp(ctx.OutsideC, tz, in.Recirc)
			if err := m.CheckInputs(in, mix, 1e-6); err != nil {
				t.Errorf("Tz=%v To=%v: %v", tz, ctx.OutsideC, err)
			}
		}
	}
}

func TestPIDDirectionAndMagnitude(t *testing.T) {
	m := model(t)
	c := NewPID(m)
	c.Reset()
	cool := c.Decide(hotCtx(30))
	if cool.SupplyTempC >= 24 {
		t.Errorf("PID cooling supply %v", cool.SupplyTempC)
	}
	c.Reset()
	heat := c.Decide(coldCtx(15))
	if heat.SupplyTempC <= 24 {
		t.Errorf("PID heating supply %v", heat.SupplyTempC)
	}
	// Reset clears the integrator.
	c.Reset()
	if c.integral != 0 || c.hasPrev {
		t.Error("Reset did not clear PID state")
	}
}

func TestPIDAntiWindup(t *testing.T) {
	m := model(t)
	c := NewPID(m)
	c.Reset()
	// Hold a large error for a long time; the integral term must stay
	// bounded so recovery is not delayed.
	for i := 0; i < 10000; i++ {
		c.Decide(hotCtx(30))
	}
	if pidKi*c.integral > 0.5+1e-9 {
		t.Errorf("integral term %v exceeded anti-windup bound", pidKi*c.integral)
	}
}

func TestConstantController(t *testing.T) {
	m := model(t)
	want := cabin.Inputs{SupplyTempC: 20, CoilTempC: 20, Recirc: 0.5, AirFlowKgS: 0.1}
	c := &Constant{Model: m, Inputs: want}
	in := c.Decide(hotCtx(24))
	if in != want {
		t.Errorf("constant inputs altered: %+v", in)
	}
	// Out-of-range inputs are clamped.
	c2 := &Constant{Model: m, Inputs: cabin.Inputs{SupplyTempC: 99, CoilTempC: -20, Recirc: 3, AirFlowKgS: 9}}
	in2 := c2.Decide(hotCtx(24))
	mix := m.MixTemp(35, 24, in2.Recirc)
	if err := m.CheckInputs(in2, mix, 1e-6); err != nil {
		t.Errorf("clamped constant inputs invalid: %v", err)
	}
}

func TestCoolingNeededModeSelection(t *testing.T) {
	// Hot ambient → cooling; cold ambient → heating; mild ambient with
	// strong sun → still cooling.
	hot, cold := hotCtx(24), coldCtx(24)
	if !coolingNeeded(&hot) {
		t.Error("35 °C day should need cooling")
	}
	if coolingNeeded(&cold) {
		t.Error("0 °C day should need heating")
	}
	sunny := coldCtx(24)
	sunny.OutsideC = 22
	sunny.SolarW = 400
	if !coolingNeeded(&sunny) {
		t.Error("22 °C + strong sun should need cooling")
	}
}

func TestControllerNames(t *testing.T) {
	m := model(t)
	for ctrl, want := range map[Controller]string{
		NewOnOff(m):         "On/Off",
		NewFuzzy(m):         "Fuzzy-based",
		NewPID(m):           "PID",
		&Constant{Model: m}: "Constant",
	} {
		if ctrl.Name() != want {
			t.Errorf("Name() = %q, want %q", ctrl.Name(), want)
		}
	}
}

func TestForecastLen(t *testing.T) {
	f := Forecast{Dt: 1, MotorPowerW: make([]float64, 7), OutsideC: make([]float64, 7), SolarW: make([]float64, 7)}
	if f.Len() != 7 {
		t.Errorf("Len = %d", f.Len())
	}
	if (Forecast{}).Len() != 0 {
		t.Error("empty forecast Len != 0")
	}
}
