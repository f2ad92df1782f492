package sim_test

import (
	"math"
	"math/rand"
	"testing"

	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/core"
	"evclimate/internal/drivecycle"
	"evclimate/internal/faults"
	"evclimate/internal/sim"
)

// This file holds the closed-loop fault tests: the safety property of the
// supervised controllers under randomized fault schedules, and the golden
// ladder walk — the pinned demote/re-promote trajectory of the supervised
// MPC through a solver-budget brownout.

// guard wraps a controller and fails the test the moment it emits a
// non-finite or out-of-envelope input vector — before the plant's own
// clamp can hide it.
type guard struct {
	t     *testing.T
	inner control.Controller
	p     cabin.Params
}

func (g *guard) Name() string { return g.inner.Name() }
func (g *guard) Reset()       { g.inner.Reset() }

func (g *guard) Decide(ctx control.StepContext) cabin.Inputs {
	in := g.inner.Decide(ctx)
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SupplyTempC", in.SupplyTempC},
		{"CoilTempC", in.CoilTempC},
		{"Recirc", in.Recirc},
		{"AirFlowKgS", in.AirFlowKgS},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			g.t.Fatalf("%s emitted non-finite %s at t=%v: %+v", g.inner.Name(), f.name, ctx.Time, in)
		}
	}
	const eps = 1e-9
	if in.AirFlowKgS < g.p.MinAirFlowKgS-eps || in.AirFlowKgS > g.p.MaxAirFlowKgS+eps {
		g.t.Fatalf("%s air flow %v outside [%v, %v] at t=%v",
			g.inner.Name(), in.AirFlowKgS, g.p.MinAirFlowKgS, g.p.MaxAirFlowKgS, ctx.Time)
	}
	if in.Recirc < -eps || in.Recirc > 1+eps {
		g.t.Fatalf("%s recirc %v outside [0, 1] at t=%v", g.inner.Name(), in.Recirc, ctx.Time)
	}
	return in
}

// randFaultSpec draws an adversarial schedule: several sensor faults with
// extreme parameters, a forecast fault, and a solver squeeze, all with
// random windows inside the profile.
func randFaultSpec(r *rand.Rand, durS float64) faults.Spec {
	win := func() faults.Window {
		a := r.Float64() * durS
		b := a + r.Float64()*(durS-a)
		return faults.Window{StartS: a, EndS: b}
	}
	sensors := []faults.Signal{faults.CabinTemp, faults.OutsideTemp, faults.SoC}
	modes := []faults.Mode{faults.Dropout, faults.StuckAt, faults.Bias, faults.Noise, faults.Quantize}
	var s faults.Spec
	s.Name = "randomized"
	for i := 0; i < 1+r.Intn(3); i++ {
		s.Sensor = append(s.Sensor, faults.SensorFault{
			Signal: sensors[r.Intn(len(sensors))],
			Mode:   modes[r.Intn(len(modes))],
			Value:  -50 + r.Float64()*100, // stuck-at / bias / noise sd / quantum
			Rate:   r.Float64(),
			Window: win(),
		})
	}
	fmodes := []faults.ForecastMode{faults.ForecastLoss, faults.ForecastTruncate, faults.ForecastCorrupt}
	s.Forecast = []faults.ForecastFault{{
		Mode:   fmodes[r.Intn(len(fmodes))],
		Keep:   r.Intn(3),
		SigmaW: r.Float64() * 10000,
		Window: win(),
	}}
	if r.Intn(2) == 0 {
		s.Solver = []faults.SolverFault{{MaxIter: 1 + r.Intn(2), Window: win()}}
	}
	return s
}

func shortMPCConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Horizon = 6
	cfg.SQPMaxIter = 5
	return cfg
}

// supervisedFamilies wraps each of the three controller families in a
// Supervisor — the MPC in the full four-stage ladder, the baselines as
// single-stage ladders (exercising the last-resort clamp path).
func supervisedFamilies(t *testing.T) map[string]func() control.Controller {
	t.Helper()
	model := func() *cabin.Model {
		m, err := cabin.New(cabin.Default())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	single := func(name string, c control.Controller) control.Controller {
		s, err := control.NewSupervisor("", control.SupervisorConfig{}, control.Stage{Name: name, Controller: c})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]func() control.Controller{
		"onoff": func() control.Controller { return single("onoff", control.NewOnOff(model())) },
		"fuzzy": func() control.Controller { return single("fuzzy", control.NewFuzzy(model())) },
		"mpc": func() control.Controller {
			s, err := core.NewSupervised(core.SupervisedConfig{MPC: shortMPCConfig()})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

// TestSupervisedOutputsSafeUnderRandomFaults is the safety property of
// the degradation ladder: whatever a randomized fault schedule feeds the
// controller — dropped sensors, absurd stuck values, corrupted previews,
// a starved solver — the Supervisor never lets a non-finite or
// out-of-envelope input vector reach the plant.
func TestSupervisedOutputsSafeUnderRandomFaults(t *testing.T) {
	envs := map[string]*drivecycle.Profile{
		"hot":  drivecycle.ECE15().Profile(1).WithAmbient(35).WithSolar(400).Truncate(150),
		"cold": drivecycle.ECE15().Profile(1).WithAmbient(0).Truncate(150),
	}
	p := cabin.Default()
	for fam, mk := range supervisedFamilies(t) {
		for env, prof := range envs {
			for trial := 0; trial < 3; trial++ {
				r := rand.New(rand.NewSource(int64(1000*trial) + int64(len(fam)) + int64(len(env))))
				flt := randFaultSpec(r, prof.Duration())
				cfg := sim.DefaultConfig(prof)
				cfg.Faults = &flt
				cfg.FaultSeed = int64(trial + 1)
				runner, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := runner.Run(&guard{t: t, inner: mk(), p: p}); err != nil {
					t.Fatalf("%s/%s trial %d: %v", fam, env, trial, err)
				}
			}
		}
	}
}

// TestSupervisedLadderGolden pins the demote/re-promote walk: a
// solver-budget brownout (1 SQP iteration per solve, 100 s ≤ t < 200 s)
// must push the supervised MPC down the ladder and sustained clean
// operation must walk it back to the full controller before the drive
// ends.
func TestSupervisedLadderGolden(t *testing.T) {
	prof := drivecycle.ECEEUDC().Profile(1).WithAmbient(35).WithSolar(400).Truncate(400)
	flt := faults.Spec{
		Name:   "solver-brownout",
		Solver: []faults.SolverFault{{MaxIter: 1, Window: faults.Window{StartS: 100, EndS: 200}}},
	}
	cfg := sim.DefaultConfig(prof)
	cfg.ControlDt = 2
	cfg.Faults = &flt
	cfg.FaultSeed = 3
	sup, err := core.NewSupervised(core.SupervisedConfig{
		MPC: shortMPCConfig(),
		Supervisor: control.SupervisorConfig{
			DemoteAfter:  3,
			PromoteAfter: 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(sup); err != nil {
		t.Fatal(err)
	}

	tr := sup.Transitions()
	if len(tr) == 0 {
		t.Fatal("brownout caused no ladder transitions")
	}
	var demotions, promotions int
	for _, m := range tr {
		if m.To > m.From {
			demotions++
			if m.Time < 100 || m.Time >= 200 {
				t.Errorf("demotion outside the fault window: %+v", m)
			}
		} else {
			promotions++
		}
	}
	if demotions == 0 || promotions == 0 {
		t.Fatalf("walk missing a direction: %d demotions, %d promotions (%+v)", demotions, promotions, tr)
	}
	if sup.Level() != 0 {
		t.Fatalf("did not recover to the full MPC: level %d", sup.Level())
	}
	// The pinned walk (bit-identical replay is part of the contract):
	// demote full→short→fuzzy inside the brownout, one premature
	// re-promotion attempt that bounces straight back down, then the
	// staged recovery to the full MPC once the window closes.
	want := []struct {
		step, from, to int
	}{
		{52, 0, 1}, {55, 1, 2}, {75, 2, 1}, {78, 1, 2}, {98, 2, 1}, {119, 1, 0},
	}
	if len(tr) != len(want) {
		t.Fatalf("transition count %d, golden %d: %+v", len(tr), len(want), tr)
	}
	for i, w := range want {
		if tr[i].Step != w.step || tr[i].From != w.from || tr[i].To != w.to {
			t.Errorf("transition %d = step %d %d→%d, golden step %d %d→%d",
				i, tr[i].Step, tr[i].From, tr[i].To, w.step, w.from, w.to)
		}
	}
}
