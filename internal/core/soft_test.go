package core

import (
	"encoding/json"
	"strings"
	"testing"

	"evclimate/internal/cabin"
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

// TestColdDecidesConverge: with soft comfort rows every subproblem of
// a closed-loop pull-down from the deep-cold soak is feasible, so no QP
// of 20 decides ends at its iteration cap and none falls back to safe
// ventilation. The thermal co-scheduling MPC's decides there are seeded
// full solves, and each converges. The cabin-only MPC carries every
// decide after its first, and each carried plan's Eq. 21 cost stays
// within costGapRel of a full solve from the same state (fullSolve);
// the measured worst gap is 8.9e-3 relative. The cabin follows the
// prediction model's response to each emitted move. Held at −15 °C,
// each measurement would miss the previous plan by all the warming
// that plan predicted, and carried plans cost up to 39 % more than a
// full solve. On that held fixture, hard comfort rows stalled all 20
// decides, 47 (cabin-only) and 42 (thermal) QPs ended at the cap, and
// the decides took 2,820 and 2,520 KKT factorizations.
func TestColdDecidesConverge(t *testing.T) {
	const costGapRel = 5e-2
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
			m, err := cabin.New(tc.cfg.Cabin)
			if err != nil {
				t.Fatal(err)
			}
			ctx := deepColdCtx()
			var worst float64
			for i := 0; i < 20; i++ {
				ctx.Time = float64(i) * ctx.Dt
				snap, err := c.StateSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				full, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := full.RestoreState(snap); err != nil {
					t.Fatal(err)
				}
				in := c.Decide(ctx)
				if c.lastErr != nil {
					t.Fatalf("decide %d fell back: %v", i, c.lastErr)
				}
				ctx.CabinTempC += m.CabinDerivative(ctx.CabinTempC, in, ctx.OutsideC, ctx.SolarW) * ctx.Dt
				if c.thermal || i == 0 {
					if st := c.LastSolve().Status; st != "converged" {
						t.Fatalf("decide %d ended %s, want converged", i, st)
					}
					continue
				}
				if it := c.LastSolve().Iterations; it > carriedSQPIters {
					t.Fatalf("decide %d took %d SQP iterations, carried budget %d", i, it, carriedSQPIters)
				}
				_, ref := fullSolve(t, full, ctx)
				gap := carriedCostGap(c, ref)
				if gap > costGapRel {
					t.Errorf("decide %d: carried plan costs %.3g more than the full solve's (relative), bound %g", i, gap, costGapRel)
				}
				worst = max(worst, gap)
			}
			st := c.Stats()
			carried := 0
			if !c.thermal {
				carried = 19
			}
			if st.CappedQPs != 0 || st.WarmHessians != carried {
				t.Fatalf("stats %+v: want %d carried decides and no capped QP", st, carried)
			}
			if st.KKTFactorizations > tc.maxKKT {
				t.Errorf("%d KKT factorizations over 20 decides, want ≤ %d", st.KKTFactorizations, tc.maxKKT)
			}
			t.Logf("%d KKT factorizations, %.1f SQP iterations per decide, worst cost gap %.3g relative",
				st.KKTFactorizations, st.AvgSQPIters(), worst)
		})
	}
}

// TestComfortSlackExactWhenReachable: the linear slack price is an exact
// penalty, so where the comfort band is reachable — the hot steady state
// of BenchmarkMPCSolveStep — every stage's slack of a full solve stays at
// zero and the plan is the hard-constrained one. The bound is on the
// relaxation the slack grants, e_k/ρ, in kelvins, and it holds for the
// full-solve reference from each decide's state. The decides themselves
// are carried after the first, real-time iterations that stop before
// the slack reaches zero; their relaxation is bounded by the comfortMet
// gate, sqpTol, so every plan keeps the next decide carried.
func TestComfortSlackExactWhenReachable(t *testing.T) {
	c := newController(t, nil)
	ctx := steadyCtx()
	var worstFull, worstRTI float64
	for i := 0; i < 10; i++ {
		snap, err := c.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		ref := newController(t, nil)
		if err := ref.RestoreState(snap); err != nil {
			t.Fatal(err)
		}
		full, _ := fullSolve(t, ref, ctx)
		c.Decide(ctx)
		if c.lastErr != nil {
			t.Fatalf("decide %d fell back: %v", i, c.lastErr)
		}
		for k := 0; k < c.cfg.Horizon; k++ {
			relaxFull := full[c.idxE(k)] / comfortSlackPerK
			relaxRTI := c.prevZ[c.idxE(k)] / comfortSlackPerK
			if relaxFull > 1e-6 {
				t.Fatalf("decide %d: full solve's stage %d slack relaxes C2 by %.3g K", i, k, relaxFull)
			}
			if relaxRTI > sqpTol {
				t.Fatalf("decide %d: stage %d slack relaxes C2 by %.3g K, above the comfortMet gate %g K", i, k, relaxRTI, sqpTol)
			}
			worstFull = max(worstFull, relaxFull)
			worstRTI = max(worstRTI, relaxRTI)
		}
	}
	t.Logf("largest comfort relaxation %.3g K (full solve), %.3g K (decides)", worstFull, worstRTI)
}

// TestFaultBudgetBindsCarriedDecide: a per-step budget below the carried
// budget still cuts a carried decide short. A budget of one iteration —
// the solver-brownout fault's — ends it budget-exceeded and unhealthy; a
// budget of two or more lets it finish its real-time iteration. This is
// why carriedSQPIters is 2 and not 1: at 1, a carried decide would need
// no more than the brownout grants, and the fault would starve nothing.
func TestFaultBudgetBindsCarriedDecide(t *testing.T) {
	c := newController(t, nil)
	ctx := steadyCtx()
	c.Decide(ctx)
	if !c.comfortMet(c.prevZ) {
		t.Fatal("steady plan misses the comfort band; the next decide would not be carried")
	}
	snap, err := c.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 2, 3, 30} {
		if err := c.RestoreState(snap); err != nil {
			t.Fatal(err)
		}
		warm := c.Stats().WarmHessians
		bctx := ctx
		bctx.SolverIterBudget = budget
		c.Decide(bctx)
		if c.Stats().WarmHessians != warm+1 {
			t.Fatalf("budget %d: decide was not carried", budget)
		}
		st, herr := c.LastSolve().Status, c.Healthy()
		if budget == 1 {
			if st != budgetExceeded || herr == nil {
				t.Errorf("budget %d: status %q, Healthy %v; want %q and an error", budget, st, herr, budgetExceeded)
			}
			continue
		}
		if st == budgetExceeded || herr != nil {
			t.Errorf("budget %d: status %q, Healthy %v; want the carried budget to bind first", budget, st, herr)
		}
		if it := c.LastSolve().Iterations; it > carriedSQPIters {
			t.Errorf("budget %d: %d SQP iterations, carried budget %d", budget, it, carriedSQPIters)
		}
	}
}

// TestBudgetIsOnlyACap: a per-step budget b runs the same solve as a
// controller whose own cap is b. The seeded steady-state decide runs
// to the default cap of 30 iterations, so budgets 1 and 29 bind it and
// 30 does not. Inputs, plan, solver counts and the other counters are
// bit-identical either way; a binding budget differs only in the
// budget-exceeded label, Stats.BudgetExceeded and Healthy.
func TestBudgetIsOnlyACap(t *testing.T) {
	for _, b := range []int{1, 29, 30} {
		budgeted := newController(t, nil)
		capped := newController(t, func(cfg *Config) { cfg.SQPMaxIter = b })
		ctx := steadyCtx()
		capIn := capped.Decide(ctx)
		ctx.SolverIterBudget = b
		budIn := budgeted.Decide(ctx)

		bs, cs := budgeted.Stats(), capped.Stats()
		bi, ci := budgeted.LastSolve(), capped.LastSolve()
		if budIn != capIn || !bitsEqual(budgeted.prevZ, capped.prevZ) ||
			bi.Iterations != ci.Iterations || bi.QPIterations != ci.QPIterations {
			t.Fatalf("budget %d: decided %+v %+v, cap %d decided %+v %+v", b, budIn, bi, b, capIn, ci)
		}
		if bi.Iterations != b || ci.Status != "max-iterations" || capped.Healthy() != nil || cs.BudgetExceeded != 0 {
			t.Fatalf("budget %d: the seeded decide did not run to its cap: %+v, Healthy %v", b, ci, capped.Healthy())
		}
		binds := b < 30
		if (bi.Status == budgetExceeded) != binds || (budgeted.Healthy() != nil) != binds || (bs.BudgetExceeded == 1) != binds {
			t.Errorf("budget %d: status %q, Healthy %v, Stats.BudgetExceeded %d; want the budget to bind: %v",
				b, bi.Status, budgeted.Healthy(), bs.BudgetExceeded, binds)
		}
		bs.BudgetExceeded = 0
		if bs != cs {
			t.Errorf("budget %d: counters %+v, cap %d's %+v", b, bs, b, cs)
		}
	}
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
