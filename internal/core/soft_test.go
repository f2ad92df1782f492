package core

import (
	"encoding/json"
	"strings"
	"testing"

	"evclimate/internal/control"
)

// deepColdCtx is BenchmarkMPCSolveStepThermal's context: a −20 °C drive
// with the cabin soaked to −15 °C and the pack to −18 °C. The comfort
// funnel asks for more warming than the heater delivers, so with hard
// comfort rows every linearized subproblem is infeasible.
func deepColdCtx() control.StepContext {
	return control.StepContext{
		Dt: 5, CabinTempC: -15, OutsideC: -20, SolarW: 0,
		MotorPowerW: 10e3, SoC: 85, TargetC: 22,
		ComfortLowC: 19, ComfortHighC: 25,
		PackTempC: -18, PackThermal: true,
	}
}

// TestColdDecidesConverge: with soft comfort rows every subproblem from
// the deep-cold soak is feasible, so each of 20 decides converges, no QP
// ends at its iteration cap, and none falls back to safe ventilation —
// for the cabin-only MPC and the thermal co-scheduling one. With hard
// comfort rows all 20 decides stalled, 47 (cabin-only) and 42 (thermal)
// QPs ended at the cap, and the decides took 2,820 and 2,520 KKT
// factorizations.
func TestColdDecidesConverge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		maxKKT int
	}{
		{"cabin-only", DefaultConfig(), 1200},
		{"thermal", thermalTestConfig(), 1300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := deepColdCtx()
			for i := 0; i < 20; i++ {
				c.Decide(ctx)
				if c.lastErr != nil {
					t.Fatalf("decide %d fell back: %v", i, c.lastErr)
				}
				if st := c.LastSolve().Status; st != "converged" {
					t.Fatalf("decide %d ended %s, want converged", i, st)
				}
			}
			st := c.Stats()
			if st.CappedQPs != 0 || st.Converged != 20 {
				t.Fatalf("stats %+v: want 20 converged decides and no capped QP", st)
			}
			if st.KKTFactorizations > tc.maxKKT {
				t.Errorf("%d KKT factorizations over 20 decides, want ≤ %d", st.KKTFactorizations, tc.maxKKT)
			}
			t.Logf("%d KKT factorizations, %.1f SQP iterations per decide", st.KKTFactorizations, st.AvgSQPIters())
		})
	}
}

// TestComfortSlackExactWhenReachable: the linear slack price is an exact
// penalty, so where the comfort band is reachable — the hot steady state
// of BenchmarkMPCSolveStep — every stage's slack stays at zero and the
// plan is the hard-constrained one. The bound is on the relaxation the
// slack grants, e_k/ρ, in kelvins.
func TestComfortSlackExactWhenReachable(t *testing.T) {
	c := newController(t, nil)
	ctx := steadyCtx()
	var worst float64
	for i := 0; i < 10; i++ {
		c.Decide(ctx)
		if c.lastErr != nil {
			t.Fatalf("decide %d fell back: %v", i, c.lastErr)
		}
		for k := 0; k < c.cfg.Horizon; k++ {
			relax := c.prevZ[c.idxE(k)] / comfortSlackPerK
			if relax > 1e-6 {
				t.Fatalf("decide %d: stage %d slack relaxes C2 by %.3g K", i, k, relax)
			}
			worst = max(worst, relax)
		}
	}
	t.Logf("largest comfort relaxation %.3g K", worst)
}

// TestRestoreRejectsOtherStageLayout: a snapshot whose warm start has
// another stage layout — here 7 variables per stage, the layout before
// the comfort slack — is refused, and the error names both layouts.
func TestRestoreRejectsOtherStageLayout(t *testing.T) {
	c := newController(t, nil)
	old := mpcState{PrevZ: make([]float64, 7*c.cfg.Horizon), HavePrev: true}
	raw, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	err = c.RestoreState(raw)
	if err == nil {
		t.Fatal("restored a 7-per-stage warm start into an 8-per-stage controller")
	}
	for _, want := range []string{"84", "96", "8 per stage", "horizon 12"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if c.havePrev {
		t.Error("refused snapshot still installed a warm start")
	}
}
