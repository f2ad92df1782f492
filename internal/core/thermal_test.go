package core

import (
	"math"
	"testing"

	"evclimate/internal/control"
	"evclimate/internal/mat"
	"evclimate/internal/qp"
)

// thermalTestConfig is a cold-climate co-scheduling configuration shared
// by the tests below.
func thermalTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Thermal = DefaultThermalOptions()
	return cfg
}

// coldCtx is a deep-cold control step: −20 °C soak, cabin and pack at
// ambient, heating demanded.
func thermColdCtx(t float64) control.StepContext {
	return control.StepContext{
		Time:         t,
		Dt:           5,
		CabinTempC:   -20,
		OutsideC:     -20,
		SolarW:       0,
		MotorPowerW:  8e3,
		SoC:          90,
		TargetC:      22,
		ComfortLowC:  19,
		ComfortHighC: 25,
		PackTempC:    -20,
		PackThermal:  true,
	}
}

func TestThermalLayout(t *testing.T) {
	c, err := New(thermalTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := c.cfg.Horizon
	if got, want := c.nz(), thermalStageVars*n; got != want {
		t.Errorf("nz = %d, want %d", got, want)
	}
	if c.prob.MEq != 4*n || c.prob.MIneq != thermalIneqPerStep*n {
		t.Errorf("problem rows MEq=%d MIneq=%d, want %d/%d", c.prob.MEq, c.prob.MIneq, 4*n, thermalIneqPerStep*n)
	}
	if c.prob.Stages != n {
		t.Fatalf("thermal problem has %d stages, want %d", c.prob.Stages, n)
	}
	// The legacy layout must be untouched by the thermal code path.
	legacy, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := legacy.nz(), stageVars*legacy.cfg.Horizon; got != want {
		t.Errorf("legacy nz = %d, want %d", got, want)
	}
	if legacy.Name() != "Battery Lifetime-aware" || c.Name() != "Thermal Co-scheduling" {
		t.Errorf("names: legacy %q, thermal %q", legacy.Name(), c.Name())
	}
}

// TestThermalColdSolve checks the co-scheduling controller's first move in
// a −20 °C soak: it must heat the cabin, command the battery heater (the
// pack sits far below the band), and never command the chiller.
func TestThermalColdSolve(t *testing.T) {
	c, err := New(thermalTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := c.Decide(thermColdCtx(0))
	if c.lastErr != nil {
		t.Fatalf("cold solve fell back: %v", c.lastErr)
	}
	if in.SupplyTempC <= in.CoilTempC-1e-9 {
		t.Errorf("no heating at −20 °C: supply %.2f, coil %.2f", in.SupplyTempC, in.CoilTempC)
	}
	if in.BattHeatW <= 0 {
		t.Errorf("pack at −20 °C with band floor %v °C but battery heater off", c.cfg.Thermal.BandLoC)
	}
	if in.BattHeatW > c.cfg.Thermal.Network.MaxHeaterW+1e-6 {
		t.Errorf("battery heater %v W exceeds limit %v", in.BattHeatW, c.cfg.Thermal.Network.MaxHeaterW)
	}
	if in.BattChillW != 0 {
		t.Errorf("chiller %v W commanded in deep cold", in.BattChillW)
	}
	if !c.Structured() {
		t.Error("cold solve did not stay on the structured QP backend")
	}
	// The planned pack trajectory must warm monotonically-ish toward the
	// band: final planned Tb above the initial.
	if tbN := c.prevZ[c.idxTb(c.cfg.Horizon)]; tbN <= -20 {
		t.Errorf("planned terminal pack temperature %v °C did not rise", tbN)
	}
}

// TestStructuredVsDenseEquivalence is the acceptance check for the
// enlarged stage stride: the stage KKT backend, with its two-variable
// state (x, Tb), and the subproblem's one-stage form must solve the
// extended stage QP subproblem to the same (unique, strictly convex)
// solution. The comparison is at the QP level because the full
// cold-climate NLP has a weakly determined optimum (heating now vs one
// step later costs nearly the same), so near-optimal SQP iterates differ
// legitimately between backends.
func TestStructuredVsDenseEquivalence(t *testing.T) {
	c, err := New(thermalTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := c.buildHorizon(thermColdCtx(0))
	n, meq, min := c.nz(), c.prob.MEq, c.prob.MIneq

	// The first SQP subproblem: identity Hessian seed, linearized
	// constraints at the initial guess.
	z0 := make([]float64, n)
	c.initialGuess(h, z0)
	g := make([]float64, n)
	c.gradient(z0, h, g)
	// The SQP's own Hessian seed (scaled identity, 1 + ‖g‖∞) keeps the
	// subproblem representative of what the backends actually solve.
	hScale := 1.0
	for _, v := range g {
		if math.Abs(v) > hScale {
			hScale = math.Abs(v)
		}
	}
	H := make([]*mat.Dense, h.n)
	for k := range H {
		H[k] = mat.NewDense(c.sv, c.sv)
		for i := 0; i < c.sv; i++ {
			H[k].Set(i, i, 1+hScale)
		}
	}
	aeq := qp.NewStageMatrix(h.n, c.sv, c.nx, c.ne)
	c.equalitiesJac(z0, h, aeq)
	beq := make([]float64, meq)
	c.equalities(z0, h, beq)
	ain := qp.NewStageMatrix(h.n, c.sv, c.nx, c.ni)
	c.inequalitiesJac(z0, h, ain)
	bin := make([]float64, min)
	c.inequalities(z0, h, bin)
	for i := range beq {
		beq[i] = -beq[i]
	}
	for i := range bin {
		bin[i] = -bin[i]
	}
	prob := &qp.Problem{H: H, C: g, Aeq: aeq, Beq: beq, Ain: ain, Bin: bin}

	rs, err := qp.Solve(prob, qp.Options{})
	if err != nil {
		t.Fatalf("structured solve: %v", err)
	}
	rd, err := qp.Solve(prob.OneStage(), qp.Options{})
	if err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	if rs.Status != qp.Optimal || rd.Status != qp.Optimal {
		t.Fatalf("statuses: structured %v, dense %v", rs.Status, rd.Status)
	}
	for i := range rs.X {
		if math.Abs(rs.X[i]-rd.X[i]) > 1e-5*(1+math.Abs(rd.X[i])) {
			t.Errorf("x[%d]: structured %v vs dense %v", i, rs.X[i], rd.X[i])
		}
	}
	if math.Abs(rs.Objective-rd.Objective) > 1e-6*(1+math.Abs(rd.Objective)) {
		t.Errorf("objectives: structured %v vs dense %v", rs.Objective, rd.Objective)
	}
}

// TestThermalStructuredEngages runs a receding-horizon warm-up at a mild
// cold ambient and checks the co-scheduling controller keeps using the
// structured backend across warm-started solves.
func TestThermalStructuredEngages(t *testing.T) {
	c, err := New(thermalTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	structured := 0
	for i := 0; i < 6; i++ {
		ctx := thermColdCtx(float64(i) * 5)
		ctx.OutsideC = 0
		ctx.CabinTempC = 5 + 1.5*float64(i)
		ctx.PackTempC = 0.8 * float64(i)
		ctx.SoC = 90 - 0.1*float64(i)
		c.Decide(ctx)
		if c.lastErr != nil {
			t.Fatalf("step %d fell back: %v", i, c.lastErr)
		}
		if c.Structured() {
			structured++
		}
	}
	// Every subproblem is feasible (soft comfort rows), so no solve falls
	// back to safe ventilation.
	if structured < 6 {
		t.Errorf("structured backend engaged on only %d/6 solves", structured)
	}
}

// TestThermalFallbackThermostat pins the safe-ventilation fallback's
// battery branch to the ladder thermostatic rule.
func TestThermalFallbackThermostat(t *testing.T) {
	c, err := New(thermalTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := thermColdCtx(0)
	ctx.SolverIterBudget = -1 // ignored (non-positive)
	// Force a breakdown: NaN measurement poisons the horizon so the solver
	// returns non-finite iterates.
	ctx.CabinTempC = math.NaN()
	in := c.Decide(ctx)
	if c.lastErr == nil {
		t.Fatal("expected safe-ventilation fallback")
	}
	if in.BattHeatW != control.BattHeatCmdW {
		t.Errorf("fallback battery heater %v W, want thermostatic %v", in.BattHeatW, control.BattHeatCmdW)
	}
	if c.Structured() {
		t.Error("fallback must clear the structured flag")
	}
}
