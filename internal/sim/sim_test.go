package sim

import (
	"math"
	"strings"
	"testing"

	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/drivecycle"
)

func hotProfile() *drivecycle.Profile {
	return drivecycle.ECEEUDC().Profile(1).WithAmbient(35).WithSolar(400)
}

func coldProfile() *drivecycle.Profile {
	return drivecycle.ECEEUDC().Profile(1).WithAmbient(0)
}

func newRunner(t *testing.T, p *drivecycle.Profile, mutate func(*Config)) *Runner {
	t.Helper()
	cfg := DefaultConfig(p)
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func hvacModel(t *testing.T) *cabin.Model {
	t.Helper()
	m, err := cabin.New(cabin.Default())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil profile accepted")
	}
	cfg := DefaultConfig(hotProfile())
	cfg.Powertrain.MassKg = -1
	if _, err := New(cfg); err == nil {
		t.Error("bad powertrain accepted")
	}
	cfg = DefaultConfig(hotProfile())
	cfg.Cabin.EtaCool = 2
	if _, err := New(cfg); err == nil {
		t.Error("bad cabin accepted")
	}
	cfg = DefaultConfig(hotProfile())
	cfg.BMS.InitialSoC = 500
	if _, err := New(cfg); err == nil {
		t.Error("bad BMS accepted")
	}
	cfg = DefaultConfig(hotProfile())
	cfg.SettleS = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative settle accepted")
	}
	// Non-finite values fail every defaulting comparison, so they must be
	// rejected by name rather than slip into the run.
	for _, field := range []string{"TargetC", "ComfortBandC", "InitialCabinC", "SettleS", "ControlDt"} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg = DefaultConfig(hotProfile())
			switch field {
			case "TargetC":
				cfg.TargetC = v
			case "ComfortBandC":
				cfg.ComfortBandC = v
			case "InitialCabinC":
				cfg.InitialCabinC = v
			case "SettleS":
				cfg.SettleS = v
			case "ControlDt":
				cfg.ControlDt = v
			}
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s = %v: got %v, want an error naming the field", field, v, err)
			}
		}
	}
}

func TestOnOffCoolsIntoComfortZone(t *testing.T) {
	r := newRunner(t, hotProfile(), nil)
	res, err := r.Run(control.NewOnOff(hvacModel(t)))
	if err != nil {
		t.Fatal(err)
	}
	// Starting pre-conditioned at the target, the controller must hold
	// the comfort zone against a 35 °C day.
	if res.ComfortViolationFrac > 0.1 {
		t.Errorf("comfort violation fraction = %v, want ≤ 0.1", res.ComfortViolationFrac)
	}
	if res.AvgHVACW <= 200 {
		t.Errorf("average HVAC power = %v W on a hot day, implausibly low", res.AvgHVACW)
	}
	if res.AvgHVACW > 6000 {
		t.Errorf("average HVAC power = %v W exceeds unit capacity", res.AvgHVACW)
	}
	// SoC must fall over the drive.
	if res.FinalSoC >= 90 {
		t.Errorf("final SoC = %v, want < initial 90", res.FinalSoC)
	}
	if res.DeltaSoH <= 0 {
		t.Errorf("ΔSoH = %v, want > 0", res.DeltaSoH)
	}
}

func TestFuzzyTracksTighterThanOnOff(t *testing.T) {
	r := newRunner(t, hotProfile(), nil)
	m := hvacModel(t)
	onoff, err := r.Run(control.NewOnOff(m))
	if err != nil {
		t.Fatal(err)
	}
	fz, err := r.Run(control.NewFuzzy(m))
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 5: the fuzzy controller stabilizes temperature far more
	// tightly than On/Off.
	if fz.RMSTrackingErrC >= onoff.RMSTrackingErrC {
		t.Errorf("fuzzy RMS %.3f should beat On/Off %.3f", fz.RMSTrackingErrC, onoff.RMSTrackingErrC)
	}
	// Fig. 8: fuzzy uses less average HVAC power than On/Off.
	if fz.AvgHVACW >= onoff.AvgHVACW {
		t.Errorf("fuzzy avg HVAC %.0f W should beat On/Off %.0f W", fz.AvgHVACW, onoff.AvgHVACW)
	}
}

func TestHeatingModeWorks(t *testing.T) {
	r := newRunner(t, coldProfile(), nil)
	m := hvacModel(t)
	for _, ctrl := range []control.Controller{control.NewOnOff(m), control.NewFuzzy(m), control.NewPID(m)} {
		res, err := r.Run(ctrl)
		if err != nil {
			t.Fatalf("%s: %v", ctrl.Name(), err)
		}
		if res.ComfortViolationFrac > 0.15 {
			t.Errorf("%s: comfort violation %v on cold day", ctrl.Name(), res.ComfortViolationFrac)
		}
		// Heating on a 0 °C day costs kilowatt-scale power.
		if res.AvgHVACW < 300 {
			t.Errorf("%s: avg HVAC %v W implausibly low for 0 °C", ctrl.Name(), res.AvgHVACW)
		}
		// Heater, not cooler, must dominate.
		var heat, cool float64
		for i := range res.Trace.HeaterW {
			heat += res.Trace.HeaterW[i]
			cool += res.Trace.CoolerW[i]
		}
		if heat <= cool {
			t.Errorf("%s: heater energy %v ≤ cooler %v on a cold day", ctrl.Name(), heat, cool)
		}
	}
}

func TestTraceShapesConsistent(t *testing.T) {
	r := newRunner(t, hotProfile(), nil)
	res, err := r.Run(control.NewOnOff(hvacModel(t)))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	n := len(tr.Time)
	for name, l := range map[string]int{
		"CabinC": len(tr.CabinC), "OutsideC": len(tr.OutsideC),
		"MotorW": len(tr.MotorW), "HVACW": len(tr.HVACW),
		"TotalW": len(tr.TotalW), "SoC": len(tr.SoC), "Inputs": len(tr.Inputs),
		"HeaterW": len(tr.HeaterW), "CoolerW": len(tr.CoolerW), "FanW": len(tr.FanW),
	} {
		if l != n {
			t.Errorf("trace %s length %d != %d", name, l, n)
		}
	}
	// HVAC = heater + cooler + fan, total = motor + HVAC + accessories.
	for i := 0; i < n; i++ {
		if math.Abs(tr.HVACW[i]-(tr.HeaterW[i]+tr.CoolerW[i]+tr.FanW[i])) > 1e-9 {
			t.Fatalf("HVAC power decomposition broken at %d", i)
		}
		if math.Abs(tr.TotalW[i]-(tr.MotorW[i]+tr.HVACW[i]+300)) > 1e-9 {
			t.Fatalf("total power decomposition broken at %d", i)
		}
	}
}

func TestConstantControllerEnergyBookkeeping(t *testing.T) {
	// A constant ventilation-only controller: HVAC energy is just fan
	// power × time.
	p := drivecycle.ECE15().Profile(1).WithAmbient(24)
	r := newRunner(t, p, nil)
	m := hvacModel(t)
	minFlow := m.Params().MinAirFlowKgS
	ctrl := &control.Constant{Model: m, Inputs: cabin.Inputs{
		SupplyTempC: 24, CoilTempC: 24, Recirc: 0.5, AirFlowKgS: minFlow,
	}}
	res, err := r.Run(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	wantFan := m.Params().FanCoeffW * minFlow * minFlow
	if math.Abs(res.AvgHVACW-wantFan) > 1 {
		t.Errorf("avg HVAC = %v, want fan-only %v", res.AvgHVACW, wantFan)
	}
}

func TestSoCMonotoneWithoutRegen(t *testing.T) {
	// On a flat constant-speed profile there is no regen, so SoC must be
	// non-increasing.
	route := &drivecycle.Route{
		Name:     "flat",
		Segments: []drivecycle.RouteSegment{{LengthKm: 5, SpeedKmh: 60, AmbientC: 30, SolarW: 200}},
	}
	p, err := route.Profile(1)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(t, p, nil)
	res, err := r.Run(control.NewFuzzy(hvacModel(t)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Trace.SoC); i++ {
		// Final deceleration regenerates; allow only tiny increases there.
		if res.Trace.SoC[i] > res.Trace.SoC[i-1]+0.05 {
			t.Fatalf("SoC jumped at %d: %v → %v", i, res.Trace.SoC[i-1], res.Trace.SoC[i])
		}
	}
	if res.FinalSoC >= 90 {
		t.Error("no energy consumed over 5 km")
	}
}

func TestMotorPowerZeroOrderHold(t *testing.T) {
	r := newRunner(t, hotProfile(), nil)
	// Beyond the profile end, the last sample's power is held.
	if got, want := r.MotorPower(1e9), r.MotorPower(r.cfg.Profile.Duration()); got != want {
		t.Errorf("MotorPower clamp: %v vs %v", got, want)
	}
	if got, want := r.MotorPower(-5), r.MotorPower(0); got != want {
		t.Errorf("MotorPower clamp low: %v vs %v", got, want)
	}
}

func TestForecastContents(t *testing.T) {
	p := hotProfile()
	r := newRunner(t, p, func(c *Config) { c.ForecastSteps = 10 })
	f := r.forecast(100, 10)
	if f.Len() != 10 {
		t.Fatalf("forecast length = %d", f.Len())
	}
	if f.Dt != 1 {
		t.Errorf("forecast dt = %v", f.Dt)
	}
	for k := 0; k < 10; k++ {
		if f.OutsideC[k] != 35 {
			t.Errorf("forecast ambient[%d] = %v, want 35", k, f.OutsideC[k])
		}
		if f.MotorPowerW[k] != r.MotorPower(100+float64(k)) {
			t.Errorf("forecast motor[%d] mismatch", k)
		}
	}
	// Zero steps → empty forecast.
	if r.forecast(0, 0).Len() != 0 {
		t.Error("empty forecast not empty")
	}
}

func TestInitialCabinOverride(t *testing.T) {
	p := hotProfile()
	r := newRunner(t, p, nil) // default: pre-conditioned at target
	res, err := r.Run(control.NewFuzzy(hvacModel(t)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.CabinC[0] != 24 {
		t.Errorf("initial cabin = %v, want 24", res.Trace.CabinC[0])
	}
	// Soak start: cabin begins at ambient.
	soaked := newRunner(t, p, func(c *Config) { c.UseAmbientStart = true })
	sres, err := soaked.Run(control.NewFuzzy(hvacModel(t)))
	if err != nil {
		t.Fatal(err)
	}
	if sres.Trace.CabinC[0] != 35 {
		t.Errorf("soaked initial cabin = %v, want 35", sres.Trace.CabinC[0])
	}
	// The soaked run must pull the cabin down toward the target by the
	// end of the cycle.
	last := sres.Trace.CabinC[len(sres.Trace.CabinC)-1]
	if last > 28 {
		t.Errorf("soaked cabin only reached %.1f °C by cycle end", last)
	}
}

func TestCoarserControlPeriod(t *testing.T) {
	p := hotProfile()
	r := newRunner(t, p, func(c *Config) { c.ControlDt = 5; c.PlantSubSteps = 10 })
	res, err := r.Run(control.NewFuzzy(hvacModel(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Time) != int(math.Ceil(p.Duration()/5)) {
		t.Errorf("trace length %d with 5 s control period", len(res.Trace.Time))
	}
	if res.ComfortViolationFrac > 0.2 {
		t.Errorf("comfort violation %v at 5 s period", res.ComfortViolationFrac)
	}
}

func TestPIDBetweenOnOffAndFuzzy(t *testing.T) {
	r := newRunner(t, hotProfile(), nil)
	m := hvacModel(t)
	pid, err := r.Run(control.NewPID(m))
	if err != nil {
		t.Fatal(err)
	}
	if pid.ComfortViolationFrac > 0.15 {
		t.Errorf("PID comfort violation %v", pid.ComfortViolationFrac)
	}
}

func TestMildAmbientUsesLittlePower(t *testing.T) {
	// At 21 °C with modest solar, holding 24 °C is nearly free
	// (Table I row 21 °C: 0.29–0.9 kW).
	p := drivecycle.ECEEUDC().Profile(1).WithAmbient(21).WithSolar(200)
	r := newRunner(t, p, nil)
	res, err := r.Run(control.NewFuzzy(hvacModel(t)))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgHVACW > 1200 {
		t.Errorf("avg HVAC at 21 °C = %v W, want ≲ 1 kW", res.AvgHVACW)
	}
}

func TestRunDeterministic(t *testing.T) {
	// Two fresh runner+controller pairs on identical configs must produce
	// bit-identical trajectories — the property the parallel sweep engine
	// builds its replay guarantee on.
	run := func() *Result {
		p := hotProfile().Truncate(300)
		r := newRunner(t, p, nil)
		res, err := r.Run(control.NewFuzzy(hvacModel(t)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Trace.Time) != len(b.Trace.Time) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace.Time), len(b.Trace.Time))
	}
	for i := range a.Trace.Time {
		for name, pair := range map[string][2]float64{
			"CabinC": {a.Trace.CabinC[i], b.Trace.CabinC[i]},
			"HVACW":  {a.Trace.HVACW[i], b.Trace.HVACW[i]},
			"SoC":    {a.Trace.SoC[i], b.Trace.SoC[i]},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("%s diverges at step %d: %v vs %v", name, i, pair[0], pair[1])
			}
		}
	}
	if math.Float64bits(a.DeltaSoH) != math.Float64bits(b.DeltaSoH) {
		t.Errorf("DeltaSoH differs: %v vs %v", a.DeltaSoH, b.DeltaSoH)
	}
}
