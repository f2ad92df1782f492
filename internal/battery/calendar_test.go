package battery

import (
	"math"
	"testing"

	"evclimate/internal/units"
)

// TestV2GSimCoefficients pins every coefficient literal against the
// V2G-Sim BatteryDegradation reference (SNIPPETS.md coefLoss). A failure
// here means the reproduction has drifted from the cited model — update
// only with the reference in hand.
func TestV2GSimCoefficients(t *testing.T) {
	pins := []struct {
		name      string
		got, want float64
	}{
		{"a", V2GSimLossA, 8.888888888889532e-6},
		{"b", V2GSimLossB, -0.005288888888889},
		{"c", V2GSimLossC, 0.787113333333394},
		{"d", V2GSimLossD, -0.0067},
		{"e", V2GSimLossE, 2.35},
		{"f", V2GSimLossF, 8720},
		{"E", V2GSimActivationJ, 24500},
		{"R", V2GSimGasConstant, 8.314},
	}
	for _, p := range pins {
		if p.got != p.want {
			t.Errorf("coefLoss[%s] = %v, want %v (V2G-Sim reference)", p.name, p.got, p.want)
		}
	}
	// The defaults must be wired from the pinned literals, not retyped.
	d := DefaultCalendarParams()
	if d.PreExponential != V2GSimLossF || d.ActivationJMol != V2GSimActivationJ ||
		d.GasConstant != V2GSimGasConstant || d.SoCSlopePerPct != -V2GSimLossD {
		t.Errorf("DefaultCalendarParams not wired from V2G-Sim literals: %+v", d)
	}
}

func TestCycleStressFactor(t *testing.T) {
	if f := CycleStressFactor(ArrheniusRefC); math.Abs(f-1) > 1e-12 {
		t.Errorf("factor at reference = %v, want 1", f)
	}
	// U-shape: both cold and hot excursions accelerate cycle aging.
	cold := CycleStressFactor(-20)
	if cold < 1.3 || cold > 1.45 {
		t.Errorf("factor(-20) = %v, want ≈ 1.36 (V2G-Sim polynomial ratio)", cold)
	}
	if hot := CycleStressFactor(45); hot <= 1 {
		t.Errorf("factor(45) = %v, want > 1 (Arrhenius branch)", hot)
	}
	// Monotone on each branch: colder is worse below the reference.
	prev := CycleStressFactor(-20)
	for _, tc := range []float64{-10, 0, 10, 25} {
		f := CycleStressFactor(tc)
		if f >= prev {
			t.Errorf("cold branch not decreasing: factor(%v) = %v ≥ %v", tc, f, prev)
		}
		prev = f
	}
	// Continuity across the branch switch.
	if d := math.Abs(CycleStressFactor(25.0001) - CycleStressFactor(24.9999)); d > 1e-3 {
		t.Errorf("branch discontinuity %v at the reference", d)
	}
	// The exact −20 °C ratio from the pinned polynomial.
	ref := V2GSimLossA*625 + V2GSimLossB*25 + V2GSimLossC
	want := (V2GSimLossA*400 - V2GSimLossB*20 + V2GSimLossC) / ref
	if got := CycleStressFactor(-20); math.Abs(got-want) > 1e-12 {
		t.Errorf("factor(-20) = %v, want %v from pinned coefficients", got, want)
	}
}

func TestCalendarLoss(t *testing.T) {
	p := DefaultCalendarParams()
	day := p.LossPercent(25, 50, units.SecondsPerDay)
	// ≈ 0.0116 %/day at 25 °C / 50 % SoC for a one-year-old pack —
	// the V2G-Sim magnitude (a few percent per year).
	if day < 0.005 || day > 0.03 {
		t.Errorf("daily calendar loss %v %% at 25 °C, want O(0.01)", day)
	}
	// Arrhenius: cold storage preserves the pack.
	if cold := p.LossPercent(-20, 50, units.SecondsPerDay); cold >= day/5 {
		t.Errorf("calendar loss at -20 °C = %v, want ≪ %v", cold, day)
	}
	// High storage SoC ages faster.
	if p.LossPercent(25, 90, 3600) <= p.LossPercent(25, 30, 3600) {
		t.Error("calendar loss must increase with storage SoC")
	}
	// √t kernel: an older pack fades slower per day.
	old := p
	old.AgeDays = 8 * 365
	if old.LossPercent(25, 50, units.SecondsPerDay) >= day {
		t.Error("calendar fade per day must shrink with pack age")
	}
	// Additivity over sub-intervals (the accumulation the simulator does).
	split := p.LossPercent(25, 50, 1800)
	p2 := p
	p2.AgeDays += 1800.0 / units.SecondsPerDay
	split += p2.LossPercent(25, 50, 1800)
	whole := p.LossPercent(25, 50, 3600)
	if math.Abs(split-whole) > 1e-12*whole {
		t.Errorf("sub-interval accumulation %v != whole-interval %v", split, whole)
	}
}
