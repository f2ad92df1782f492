package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"evclimate/internal/control"
	"evclimate/internal/mat"
)

// TestRestoreSimulatesModel: on perturbed iterates of both stage
// layouts, restore satisfies every equality row to rounding and writes
// only the dependent variables — the states and the coil powers — so
// every input, battery-branch and slack entry keeps its bits.
func TestRestoreSimulatesModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ctx  control.StepContext
	}{
		{"cabin-only", DefaultConfig(), withForecast(hotCtx(29), []float64{5e3, 20e3, 2e3, 15e3, 0, 30e3})},
		{"cabin-only-cold", DefaultConfig(), coldCtx(8)},
		{"thermal", thermalTestConfig(), thermColdCtx(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := c.buildHorizon(tc.ctx)
			dependent := make(map[int]bool)
			for k := 0; k < h.n; k++ {
				dependent[c.idxX(k+1)] = true
				dependent[c.idxPh(k)] = true
				dependent[c.idxPc(k)] = true
				if c.thermal {
					dependent[c.idxTb(k+1)] = true
				}
			}
			rng := rand.New(rand.NewSource(7))
			z := make([]float64, c.nz())
			ce := make([]float64, c.prob.MEq)
			for trial := 0; trial < 20; trial++ {
				c.initialGuess(h, z)
				for i := range z {
					z[i] += rng.NormFloat64() * (0.05 + math.Abs(z[i])*0.1)
				}
				before := slices.Clone(z)
				c.restore(z, h)
				c.equalities(z, h, ce)
				if v := mat.NormInf(ce); v > 1e-12 {
					t.Fatalf("trial %d: equality residual %g after restore", trial, v)
				}
				for i := range z {
					if !dependent[i] && math.Float64bits(z[i]) != math.Float64bits(before[i]) {
						t.Fatalf("trial %d: restore moved independent variable %d (stage %d, slot %d): %v → %v",
							trial, i, i/c.sv, i%c.sv, before[i], z[i])
					}
				}
			}
		})
	}
}

// TestCarriedDecideStartsFromMeasurement: when the measured cabin
// temperature jumps 2 K between two decides, the carried decide's
// initial iterate — the shifted plan re-simulated from the measurement —
// satisfies its first stage's equality rows to roundoff, for both stage
// layouts. The shifted plan alone misses the cabin row by most of the
// jump.
func TestCarriedDecideStartsFromMeasurement(t *testing.T) {
	temperate := func() control.StepContext {
		ctx := thermColdCtx(0)
		ctx.CabinTempC, ctx.OutsideC, ctx.PackTempC = 22, 15, 20
		return ctx
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		ctx  control.StepContext
	}{
		{"cabin-only", DefaultConfig(), steadyCtx()},
		{"thermal", thermalTestConfig(), temperate()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := tc.ctx
			c.Decide(ctx)
			if !c.comfortMet(c.prevZ) {
				t.Fatal("plan misses the comfort band; the next decide would not be carried")
			}
			prev := slices.Clone(c.prevZ)
			ctx.Time += ctx.Dt
			ctx.CabinTempC += 2
			warm := c.Stats().WarmHessians
			c.Decide(ctx)
			if c.Stats().WarmHessians != warm+1 {
				t.Fatal("decide after the jump was not carried")
			}
			ce := make([]float64, c.prob.MEq)
			c.equalities(c.z0, &c.hor, ce)
			for r, v := range ce[:c.ne] {
				if math.Abs(v) > 1e-12 {
					t.Errorf("initial iterate: stage 0 row %d residual %g", r, v)
				}
			}
			shifted := make([]float64, c.nz())
			c.shiftWarmStart(prev, &c.hor, shifted)
			if rx, _ := c.dynamics(shifted, &c.hor, 0); math.Abs(rx) < 1 {
				t.Errorf("shifted plan's cabin row residual %g K; the 2 K jump should show", rx)
			}
		})
	}
}
