package core

import (
	"math"
	"slices"
	"testing"

	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/qp"
)

func newController(t *testing.T, mutate func(*Config)) *Controller {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func hotCtx(tz float64) control.StepContext {
	return control.StepContext{
		Time: 0, Dt: 5,
		CabinTempC: tz, OutsideC: 35, SolarW: 400,
		MotorPowerW: 10e3, SoC: 85,
		TargetC: 24, ComfortLowC: 21, ComfortHighC: 27,
	}
}

func coldCtx(tz float64) control.StepContext {
	ctx := hotCtx(tz)
	ctx.OutsideC = 0
	ctx.SolarW = 0
	return ctx
}

// withForecast attaches an N-step constant forecast with a motor-power
// pattern.
func withForecast(ctx control.StepContext, motorW []float64) control.StepContext {
	n := len(motorW)
	f := control.Forecast{Dt: 5, MotorPowerW: motorW, OutsideC: make([]float64, n), SolarW: make([]float64, n)}
	for i := range f.OutsideC {
		f.OutsideC[i] = ctx.OutsideC
		f.SolarW[i] = ctx.SolarW
	}
	ctx.Forecast = f
	return ctx
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatteryVoltageV = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero voltage accepted")
	}
	cfg = DefaultConfig()
	cfg.Weights.Power = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative weight accepted")
	}
	cfg = DefaultConfig()
	cfg.Cabin.EtaCool = 5
	if _, err := New(cfg); err == nil {
		t.Error("bad cabin accepted")
	}
}

func TestGradientMatchesFiniteDifferences(t *testing.T) {
	c := newController(t, func(cfg *Config) { cfg.Horizon = 4 })
	ctx := withForecast(hotCtx(26), []float64{5e3, 20e3, 2e3, 15e3})
	h := c.buildHorizon(ctx)
	z := make([]float64, c.nz())
	c.initialGuess(h, z)
	// Perturb to a generic interior point.
	for i := range z {
		z[i] += 0.01 * float64(i%7)
	}
	grad := make([]float64, len(z))
	c.gradient(z, h, grad)
	for i := range z {
		hstep := 1e-6 * (1 + math.Abs(z[i]))
		zp := slices.Clone(z)
		zm := slices.Clone(z)
		zp[i] += hstep
		zm[i] -= hstep
		fd := (c.objective(zp, h) - c.objective(zm, h)) / (2 * hstep)
		if math.Abs(fd-grad[i]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("grad[%d] = %v, FD = %v", i, grad[i], fd)
		}
	}
}

// windowAt reads entry (i, j) of a stage Jacobian, zero outside row i's
// stage window — so the finite-difference checks below also prove the
// constraints honor the stage support contract.
func windowAt(jac *qp.StageMatrix, i, j int) float64 {
	if lo, v := jac.Row(i); j >= lo && j < lo+len(v) {
		return v[j-lo]
	}
	return 0
}

func TestEqualitiesJacMatchesFiniteDifferences(t *testing.T) {
	c := newController(t, func(cfg *Config) { cfg.Horizon = 3 })
	ctx := hotCtx(26)
	h := c.buildHorizon(ctx)
	z := make([]float64, c.nz())
	c.initialGuess(h, z)
	for i := range z {
		z[i] += 0.013 * float64(i%5)
	}
	m := 3 * h.n
	jac := qp.NewStageMatrix(h.n, c.sv, c.nx, 3)
	c.equalitiesJac(z, h, jac)
	base := make([]float64, m)
	pert := make([]float64, m)
	c.equalities(z, h, base)
	for j := range z {
		hstep := 1e-6 * (1 + math.Abs(z[j]))
		zp := slices.Clone(z)
		zp[j] += hstep
		c.equalities(zp, h, pert)
		for i := 0; i < m; i++ {
			fd := (pert[i] - base[i]) / hstep
			if got := windowAt(jac, i, j); math.Abs(fd-got) > 1e-3*(1+math.Abs(fd)) {
				t.Errorf("eqJac[%d][%d] = %v, FD = %v", i, j, got, fd)
			}
		}
	}
}

func TestIneqJacMatchesFiniteDifferences(t *testing.T) {
	c := newController(t, func(cfg *Config) { cfg.Horizon = 3 })
	ctx := hotCtx(26)
	h := c.buildHorizon(ctx)
	z := make([]float64, c.nz())
	c.initialGuess(h, z)
	for i := range z {
		z[i] += 0.017 * float64(i%4)
	}
	m := h.n * ineqPerStep
	jac := qp.NewStageMatrix(h.n, c.sv, c.nx, ineqPerStep)
	c.inequalitiesJac(z, h, jac)
	base := make([]float64, m)
	pert := make([]float64, m)
	c.inequalities(z, h, base)
	for j := range z {
		hstep := 1e-6 * (1 + math.Abs(z[j]))
		zp := slices.Clone(z)
		zp[j] += hstep
		c.inequalities(zp, h, pert)
		for i := 0; i < m; i++ {
			fd := (pert[i] - base[i]) / hstep
			if got := windowAt(jac, i, j); math.Abs(fd-got) > 1e-3*(1+math.Abs(fd)) {
				t.Errorf("ineqJac[%d][%d] = %v, FD = %v", i, j, got, fd)
			}
		}
	}
}

func TestDecideReturnsValidInputs(t *testing.T) {
	c := newController(t, nil)
	m, err := cabin.New(cabin.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []control.StepContext{hotCtx(26), hotCtx(24), coldCtx(20), coldCtx(24)} {
		in := c.Decide(ctx)
		mix := m.MixTemp(ctx.OutsideC, ctx.CabinTempC, in.Recirc)
		if err := m.CheckInputs(in, mix, 1e-6); err != nil {
			t.Errorf("ctx To=%v Tz=%v: %v", ctx.OutsideC, ctx.CabinTempC, err)
		}
	}
}

// TestOneStepHorizonIsStructured: a one-step horizon is a one-stage QP
// subproblem, which factors on the same stage recursion as a longer
// horizon, so its solves report Structured like any other.
func TestOneStepHorizonIsStructured(t *testing.T) {
	c := newController(t, func(cfg *Config) { cfg.Horizon = 1 })
	m, err := cabin.New(cabin.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []control.StepContext{hotCtx(26), coldCtx(20)} {
		in := c.Decide(ctx)
		if c.lastErr != nil {
			t.Fatalf("ctx To=%v: solve fell back: %v", ctx.OutsideC, c.lastErr)
		}
		if err := m.CheckInputs(in, m.MixTemp(ctx.OutsideC, ctx.CabinTempC, in.Recirc), 1e-6); err != nil {
			t.Errorf("ctx To=%v: %v", ctx.OutsideC, err)
		}
		if !c.Structured() {
			t.Errorf("ctx To=%v: one-step solve not reported structured (last solve %+v)", ctx.OutsideC, c.LastSolve())
		}
	}
	if s := c.Stats(); s.KKTFactorizations == 0 || s.CappedQPs != 0 {
		t.Errorf("stats %+v: want KKT factorizations and no capped QP", s)
	}
}

// miniLoop runs steps closed-loop Decide/plant iterations from tz0 and
// returns the final cabin temperature.
func miniLoop(t *testing.T, c *Controller, mkCtx func(float64) control.StepContext, tz0 float64, steps int) float64 {
	t.Helper()
	m, err := cabin.New(cabin.Default())
	if err != nil {
		t.Fatal(err)
	}
	tz := tz0
	for i := 0; i < steps; i++ {
		ctx := mkCtx(tz)
		in := c.Decide(ctx)
		d := m.CabinDerivative(tz, in, ctx.OutsideC, ctx.SolarW)
		tz += d * ctx.Dt
	}
	return tz
}

func TestClosedLoopCoolsHotCabin(t *testing.T) {
	c := newController(t, nil)
	// 26.5 °C cabin, hot day: 20 closed-loop steps (100 s) must move the
	// temperature clearly toward the 24 °C target.
	tz := miniLoop(t, c, hotCtx, 26.5, 20)
	if tz >= 26.0 {
		t.Errorf("cabin stayed at %.2f °C after 100 s of closed-loop cooling", tz)
	}
	if c.Stats().Failed > 0 {
		t.Errorf("solver failures: %+v", c.Stats())
	}
}

func TestClosedLoopHeatsColdCabin(t *testing.T) {
	c := newController(t, nil)
	tz := miniLoop(t, c, coldCtx, 21.5, 20)
	if tz <= 22.0 {
		t.Errorf("cabin stayed at %.2f °C after 100 s of closed-loop heating", tz)
	}
}

// TestPrecoolBehaviour is the heart of the paper (Fig. 6): with a motor
// power valley followed by a peak in the forecast, the MPC must spend
// more HVAC power during the valley than during the peak.
func TestPrecoolBehaviour(t *testing.T) {
	c := newController(t, func(cfg *Config) {
		cfg.Horizon = 8
		cfg.Weights.SoCDev = 5e4 // emphasize peak shaving for the test
		// A one-shot seeded solve: room to shape the schedule fully.
		cfg.SQPMaxIter = 60
	})
	m, _ := cabin.New(cabin.Default())

	// Valley now, big peak from step 3 on.
	valleyThenPeak := []float64{0, 0, 0, 60e3, 60e3, 60e3, 60e3, 60e3}
	ctxValley := withForecast(hotCtx(24.5), valleyThenPeak)
	inValley := c.Decide(ctxValley)
	pwValley := m.PowersFor(inValley, m.MixTemp(35, 24.5, inValley.Recirc)).Total()

	// Peak now, valley later.
	c.Reset()
	peakThenValley := []float64{60e3, 60e3, 60e3, 0, 0, 0, 0, 0}
	ctxPeak := withForecast(hotCtx(24.5), peakThenValley)
	ctxPeak.MotorPowerW = 60e3
	inPeak := c.Decide(ctxPeak)
	pwPeak := m.PowersFor(inPeak, m.MixTemp(35, 24.5, inPeak.Recirc)).Total()

	if pwValley <= pwPeak {
		t.Errorf("no precool: HVAC %v W in valley ≤ %v W at peak", pwValley, pwPeak)
	}
}

func TestWarmStartReducesIterations(t *testing.T) {
	c := newController(t, nil)
	ctx := withForecast(hotCtx(25), []float64{10e3, 12e3, 9e3, 11e3, 10e3, 12e3, 9e3, 11e3, 10e3, 12e3, 9e3, 11e3})
	c.Decide(ctx)
	first := c.Stats().AvgSQPIters()
	// Subsequent solves from the shifted warm start should be cheaper on
	// average.
	for i := 0; i < 4; i++ {
		c.Decide(ctx)
	}
	s := c.Stats()
	avgLater := (float64(s.SQPIters) - first) / float64(s.Solves-1)
	if avgLater > first+1 {
		t.Errorf("warm start not helping: first %v iters, later avg %v", first, avgLater)
	}
	if s.Failed > 0 {
		t.Errorf("solver failures: %+v", s)
	}
}

func TestResetClearsState(t *testing.T) {
	c := newController(t, nil)
	c.Decide(hotCtx(25))
	if !c.havePrev {
		t.Fatal("no plan after Decide")
	}
	c.Reset()
	if c.havePrev {
		t.Error("plan survived Reset")
	}
	if c.Stats().Solves != 0 {
		t.Error("stats survived Reset")
	}
}

func TestPredictedPlanWithinComfortFunnel(t *testing.T) {
	c := newController(t, nil)
	ctx := hotCtx(25)
	c.Decide(ctx)
	if !c.havePrev {
		t.Fatal("no plan after Decide")
	}
	for k := 1; k <= c.cfg.Horizon; k++ {
		if tz := c.prevZ[c.idxX(k)]; tz < ctx.ComfortLowC-0.5 || tz > ctx.ComfortHighC+0.5 {
			t.Errorf("planned Tz[%d] = %v outside comfort zone", k, tz)
		}
	}
}

func TestSoakStartFeasibleViaFunnel(t *testing.T) {
	// Starting far outside the comfort zone must not break the solver;
	// the funnel relaxes C2.
	c := newController(t, nil)
	in := c.Decide(hotCtx(35))
	m, _ := cabin.New(cabin.Default())
	d := m.CabinDerivative(35, in, 35, 400)
	if d >= 0 {
		t.Errorf("soaked cabin not being cooled: dTz/dt = %v", d)
	}
	if c.Stats().Failed > 0 {
		t.Errorf("solver failed on soak start: %+v", c.Stats())
	}
}

func TestHigherPowerWeightLowersConsumption(t *testing.T) {
	m, _ := cabin.New(cabin.Default())
	frugal := newController(t, func(cfg *Config) { cfg.Weights.Power = 5e-3; cfg.Weights.Comfort = 0.05 })
	comfy := newController(t, func(cfg *Config) { cfg.Weights.Power = 1e-6; cfg.Weights.Comfort = 5 })
	ctx := hotCtx(26)
	inFrugal := frugal.Decide(ctx)
	inComfy := comfy.Decide(ctx)
	pF := m.PowersFor(inFrugal, m.MixTemp(35, 26, inFrugal.Recirc)).Total()
	pC := m.PowersFor(inComfy, m.MixTemp(35, 26, inComfy.Recirc)).Total()
	if pF >= pC {
		t.Errorf("power weight not effective: frugal %v W ≥ comfy %v W", pF, pC)
	}
}

func TestNoForecastFallsBackToCurrentConditions(t *testing.T) {
	c := newController(t, nil)
	ctx := hotCtx(25) // no forecast attached
	h := c.buildHorizon(ctx)
	for k := 0; k < h.n; k++ {
		if h.motorW[k] != ctx.MotorPowerW || h.outsideC[k] != 35 || h.solarW[k] != 400 {
			t.Fatalf("horizon step %d not held at current conditions", k)
		}
	}
}

func TestCoilFloorTracksColdAmbient(t *testing.T) {
	c := newController(t, nil)
	h := c.buildHorizon(coldCtx(22))
	for k := 0; k < h.n; k++ {
		if h.coilFloorC[k] != 0 { // min(3 °C, 0 °C ambient)
			t.Errorf("coil floor[%d] = %v, want 0", k, h.coilFloorC[k])
		}
	}
	h = c.buildHorizon(hotCtx(26))
	for k := 0; k < h.n; k++ {
		if h.coilFloorC[k] != 3 {
			t.Errorf("hot-day coil floor[%d] = %v, want 3", k, h.coilFloorC[k])
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	c := newController(t, nil)
	for i := 0; i < 3; i++ {
		c.Decide(hotCtx(25))
	}
	s := c.Stats()
	if s.Solves != 3 {
		t.Errorf("solves = %d, want 3", s.Solves)
	}
	if s.AvgSQPIters() <= 0 {
		t.Errorf("avg iters = %v", s.AvgSQPIters())
	}
}

func TestWeightPresets(t *testing.T) {
	m, err := cabin.New(cabin.Default())
	if err != nil {
		t.Fatal(err)
	}
	run := func(w Weights) (powerW float64, finalDev float64) {
		c := newController(t, func(cfg *Config) { cfg.Weights = w })
		tz := 26.0
		var energy float64
		for i := 0; i < 20; i++ {
			ctx := hotCtx(tz)
			in := c.Decide(ctx)
			mix := m.MixTemp(ctx.OutsideC, tz, in.Recirc)
			energy += m.PowersFor(in, mix).Total() * ctx.Dt
			tz += m.CabinDerivative(tz, in, ctx.OutsideC, ctx.SolarW) * ctx.Dt
		}
		return energy, tz - 24
	}
	ecoP, ecoDev := run(EconomyWeights())
	comfP, comfDev := run(ComfortWeights())
	if ecoP >= comfP {
		t.Errorf("economy preset used more energy (%v) than comfort (%v)", ecoP, comfP)
	}
	if math.Abs(comfDev) > math.Abs(ecoDev)+0.5 {
		t.Errorf("comfort preset tracked worse: dev %v vs economy %v", comfDev, ecoDev)
	}
}

func TestForecastResamplingCoarserGrid(t *testing.T) {
	// Forecast sampled at 1 s, MPC grid at 5 s: buildHorizon must pick
	// the forecast value at each grid instant.
	c := newController(t, nil)
	n := 60
	f := control.Forecast{Dt: 1, MotorPowerW: make([]float64, n), OutsideC: make([]float64, n), SolarW: make([]float64, n)}
	for i := 0; i < n; i++ {
		f.MotorPowerW[i] = float64(i) * 100
		f.OutsideC[i] = 35
	}
	ctx := hotCtx(25)
	ctx.Forecast = f
	h := c.buildHorizon(ctx)
	for k := 0; k < h.n; k++ {
		want := float64(k*5) * 100
		if h.motorW[k] != want {
			t.Errorf("motorW[%d] = %v, want %v", k, h.motorW[k], want)
		}
	}
}

func TestForecastShorterThanHorizonHoldsLast(t *testing.T) {
	c := newController(t, nil)
	ctx := withForecast(hotCtx(25), []float64{1e3, 2e3, 3e3}) // 3 steps for a 12-step horizon
	h := c.buildHorizon(ctx)
	for k := 3; k < h.n; k++ {
		if h.motorW[k] != 3e3 {
			t.Errorf("motorW[%d] = %v, want last value 3e3", k, h.motorW[k])
		}
	}
}

func TestComfortFunnelFromSoak(t *testing.T) {
	c := newController(t, nil)
	ctx := hotCtx(35) // 8 °C above the comfort ceiling
	h := c.buildHorizon(ctx)
	// The first step's upper bound must admit the current temperature...
	if h.comfortHi[0] < 34 {
		t.Errorf("comfortHi[0] = %v excludes the soaked cabin", h.comfortHi[0])
	}
	// ...and the funnel must tighten monotonically along the horizon.
	for k := 1; k < h.n; k++ {
		if h.comfortHi[k] > h.comfortHi[k-1]+1e-12 {
			t.Errorf("funnel widened at %d: %v > %v", k, h.comfortHi[k], h.comfortHi[k-1])
		}
	}
	// Inside the zone the bounds are the plain comfort limits.
	h2 := c.buildHorizon(hotCtx(24))
	for k := 0; k < h2.n; k++ {
		if h2.comfortLo[k] != 21 || h2.comfortHi[k] != 27 {
			t.Errorf("in-zone bounds[%d] = [%v, %v]", k, h2.comfortLo[k], h2.comfortHi[k])
		}
	}
}

func TestSoCTrajectoryDrainsWithPower(t *testing.T) {
	c := newController(t, nil)
	ctx := withForecast(hotCtx(25), []float64{30e3, 30e3, 30e3, 30e3, 30e3, 30e3, 30e3, 30e3, 30e3, 30e3, 30e3, 30e3})
	h := c.buildHorizon(ctx)
	z := make([]float64, c.nz())
	c.initialGuess(h, z)
	soc := c.socTrajectory(z, h)
	// Monotone decreasing under constant positive power.
	prev := h.soc0
	for k, s := range soc {
		if s >= prev {
			t.Errorf("SoC rose at step %d: %v ≥ %v", k, s, prev)
		}
		prev = s
	}
	// Magnitude: 30 kW+ for 60 s on the 24 kWh pack drains ≈ 2 %.
	drop := h.soc0 - soc[len(soc)-1]
	if drop < 1 || drop > 4 {
		t.Errorf("window SoC drop = %v %%, want 1–4", drop)
	}
}
