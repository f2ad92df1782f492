package battery

import (
	"math"
	"testing"
	"testing/quick"
)

func newLeaf(t *testing.T, soc float64) *Pack {
	t.Helper()
	pk, err := NewPack(LeafPack(), soc)
	if err != nil {
		t.Fatal(err)
	}
	return pk
}

func TestLeafPackEnergy(t *testing.T) {
	p := LeafPack()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// 66.2 Ah × 360 V ≈ 23.8 kWh.
	if e := p.EnergyKWh(); math.Abs(e-23.8) > 0.1 {
		t.Errorf("pack energy = %v kWh, want ≈ 23.8", e)
	}
}

func TestParamsValidation(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.NominalCapacityAh = 0 },
		func(p *Params) { p.NominalCurrentA = -1 },
		func(p *Params) { p.NominalVoltageV = 0 },
		func(p *Params) { p.PeukertConst = 0.9 },
		func(p *Params) { p.ChargeEfficiency = 0 },
		func(p *Params) { p.ChargeEfficiency = 1.1 },
	}
	for i, mutate := range cases {
		p := LeafPack()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
	if _, err := NewPack(LeafPack(), 130); err == nil {
		t.Error("SoC > 100 accepted")
	}
	if _, err := NewPack(LeafPack(), -1); err == nil {
		t.Error("negative SoC accepted")
	}
}

func TestEffectiveCurrentPeukert(t *testing.T) {
	pk := newLeaf(t, 100)
	in := LeafPack().NominalCurrentA
	// At the nominal current, I_eff == I exactly.
	if got := pk.EffectiveCurrent(in); math.Abs(got-in) > 1e-12 {
		t.Errorf("I_eff at nominal = %v, want %v", got, in)
	}
	// Above nominal, the effective current exceeds the actual current.
	if got := pk.EffectiveCurrent(2 * in); got <= 2*in {
		t.Errorf("I_eff at 2·I_n = %v, want > %v (rate-capacity effect)", got, 2*in)
	}
	// Known value: I_eff = 2In·2^(pc−1) = 2In·2^0.1.
	want := 2 * in * math.Pow(2, 0.1)
	if got := pk.EffectiveCurrent(2 * in); math.Abs(got-want) > 1e-9 {
		t.Errorf("I_eff = %v, want %v", got, want)
	}
	// Below nominal, discharge is cheaper than face value.
	if got := pk.EffectiveCurrent(in / 2); got >= in/2 {
		t.Errorf("I_eff at I_n/2 = %v, want < %v", got, in/2)
	}
	// Charging applies only the charge efficiency.
	if got := pk.EffectiveCurrent(-10); math.Abs(got-(-10*0.95)) > 1e-12 {
		t.Errorf("charge I_eff = %v, want -9.5", got)
	}
}

func TestEffectiveCurrentMonotone(t *testing.T) {
	pk := newLeaf(t, 100)
	f := func(raw float64) bool {
		i := math.Abs(math.Mod(raw, 300))
		return pk.EffectiveCurrent(i+1) > pk.EffectiveCurrent(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStepDischargeBookkeeping(t *testing.T) {
	pk := newLeaf(t, 100)
	// Drain at exactly the nominal current for one hour: SoC falls by
	// 100·I_n/C_n percent.
	p := LeafPack()
	powerW := p.NominalCurrentA * p.NominalVoltageV
	for i := 0; i < 3600; i++ {
		pk.Step(powerW, 1)
	}
	wantDrop := 100 * p.NominalCurrentA / p.NominalCapacityAh
	if math.Abs((100-pk.SoC())-wantDrop) > 0.01 {
		t.Errorf("SoC drop = %v, want %v", 100-pk.SoC(), wantDrop)
	}
}

func TestHighRateDischargeCostsMore(t *testing.T) {
	// Same energy at double rate for half time drains more SoC
	// (rate-capacity / Peukert effect).
	slow := newLeaf(t, 100)
	fast := newLeaf(t, 100)
	p := LeafPack()
	base := 2 * p.NominalCurrentA * p.NominalVoltageV
	for i := 0; i < 1000; i++ {
		slow.Step(base, 1)
	}
	for i := 0; i < 500; i++ {
		fast.Step(2*base, 1)
	}
	if fast.SoC() >= slow.SoC() {
		t.Errorf("fast discharge SoC %v should be below slow %v", fast.SoC(), slow.SoC())
	}
}

func TestStepChargeAndClamp(t *testing.T) {
	pk := newLeaf(t, 50)
	pk.Step(-100e3, 60) // strong regen
	if pk.SoC() <= 50 {
		t.Error("charging did not raise SoC")
	}
	// Clamp at 100.
	for i := 0; i < 10000; i++ {
		pk.Step(-100e3, 60)
	}
	if pk.SoC() != 100 {
		t.Errorf("SoC = %v, want clamp at 100", pk.SoC())
	}
	// Clamp at 0.
	for i := 0; i < 100000; i++ {
		pk.Step(500e3, 60)
	}
	if pk.SoC() != 0 {
		t.Errorf("SoC = %v, want 0", pk.SoC())
	}
}

func TestCycleStatsKnown(t *testing.T) {
	for name, stats := range map[string]func([]float64) (float64, float64, error){
		"two-pass": CycleStats,
		"online":   func(tr []float64) (float64, float64, error) { return accumulate(tr).Stats() },
	} {
		// Constant trace: zero deviation.
		dev, avg, err := stats([]float64{80, 80, 80, 80})
		if err != nil {
			t.Fatal(err)
		}
		if dev != 0 || avg != 80 {
			t.Errorf("%s: constant trace: dev=%v avg=%v", name, dev, avg)
		}
		// Two-level trace 60/80: avg 70, dev 10.
		dev, avg, err = stats([]float64{60, 80, 60, 80})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(avg-70) > 1e-12 || math.Abs(dev-10) > 1e-12 {
			t.Errorf("%s: two-level trace: dev=%v avg=%v, want 10/70", name, dev, avg)
		}
		if _, _, err := stats([]float64{80}); err == nil {
			t.Errorf("%s: single-sample trace accepted", name)
		}
	}
}

func TestCycleStatsProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		trace := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			trace[i] = math.Abs(math.Mod(v, 100))
		}
		dev, avg, err := accumulate(trace).Stats()
		if err != nil {
			return false
		}
		// Deviation is nonnegative and bounded by the range; average is
		// within the sample range; both agree with the two-pass reference.
		lo, hi := trace[0], trace[0]
		for _, v := range trace {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		refDev, refAvg, _ := CycleStats(trace)
		return dev >= 0 && dev <= hi-lo+1e-9 && avg >= lo-1e-9 && avg <= hi+1e-9 &&
			math.Abs(dev-refDev) <= 1e-9 && math.Abs(avg-refAvg) <= 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeltaSoHMonotonicity(t *testing.T) {
	p := DefaultSoHParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// More SoC deviation → more degradation.
	if p.DeltaSoH(8, 70) <= p.DeltaSoH(4, 70) {
		t.Error("ΔSoH not increasing in SoCdev")
	}
	// Higher average SoC → more degradation.
	if p.DeltaSoH(4, 90) <= p.DeltaSoH(4, 60) {
		t.Error("ΔSoH not increasing in SoCavg")
	}
	// Always positive.
	if p.DeltaSoH(0, 0) <= 0 {
		t.Error("ΔSoH must be positive")
	}
}

func TestDeltaSoHCalibration(t *testing.T) {
	// A typical commute (dev ≈ 5 %, avg ≈ 70 %) should cost on the order
	// of 0.01 % SoH → a plausible 1000–4000 cycle life.
	p := DefaultSoHParams()
	d := p.DeltaSoH(5, 70)
	cycles := LifetimeCycles(d)
	if cycles < 800 || cycles > 6000 {
		t.Errorf("lifetime = %.0f cycles at ΔSoH %.4f %%, want 800–6000", cycles, d)
	}
}

func TestDeltaSoHFromTrace(t *testing.T) {
	p := DefaultSoHParams()
	flat := []float64{70, 70, 70, 70}
	ripple := []float64{60, 80, 60, 80}
	dFlat, err := accumulate(flat).DeltaSoH(&p)
	if err != nil {
		t.Fatal(err)
	}
	dRipple, err := accumulate(ripple).DeltaSoH(&p)
	if err != nil {
		t.Fatal(err)
	}
	if dRipple <= dFlat {
		t.Errorf("rippled SoC (%v) must degrade more than flat (%v)", dRipple, dFlat)
	}
	if _, err := accumulate([]float64{1}).DeltaSoH(&p); err == nil {
		t.Error("short trace accepted")
	}
}

func TestSoHParamsValidation(t *testing.T) {
	cases := []func(*SoHParams){
		func(p *SoHParams) { p.A1 = 0 },
		func(p *SoHParams) { p.A2 = -1 },
		func(p *SoHParams) { p.A3 = 0 },
		func(p *SoHParams) { p.Alpha = 0 },
		func(p *SoHParams) { p.Beta = -0.1 },
		func(p *SoHParams) { p.ChargeDevOffset = -1 },
	}
	for i, mutate := range cases {
		p := DefaultSoHParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestLifetimeCycles(t *testing.T) {
	if got := LifetimeCycles(0.01); math.Abs(got-2000) > 1e-9 {
		t.Errorf("LifetimeCycles(0.01) = %v, want 2000", got)
	}
	if !math.IsInf(LifetimeCycles(0), 1) {
		t.Error("zero degradation should give infinite life")
	}
}

func TestProjectLifetimeCompounds(t *testing.T) {
	p := DefaultSoHParams()
	proj, err := ProjectLifetime(p, 5, 70)
	if err != nil {
		t.Fatal(err)
	}
	// The compounding projection must be strictly shorter than the
	// constant-rate estimate, but in the same order of magnitude.
	if float64(proj.CyclesToEOL) >= proj.NaiveCycles {
		t.Errorf("compounding (%d) not shorter than naive (%.0f)", proj.CyclesToEOL, proj.NaiveCycles)
	}
	if float64(proj.CyclesToEOL) < proj.NaiveCycles/3 {
		t.Errorf("compounding (%d) implausibly far below naive (%.0f)", proj.CyclesToEOL, proj.NaiveCycles)
	}
	// Stops at the EOL threshold.
	if proj.FinalSoHPct > 100-EndOfLifeFadePercent+0.1 {
		t.Errorf("stopped above EOL: %v", proj.FinalSoHPct)
	}
	// The curve is monotone decreasing from 100.
	if proj.SoHCurve[0] != 100 {
		t.Errorf("curve starts at %v", proj.SoHCurve[0])
	}
	for i := 1; i < len(proj.SoHCurve); i++ {
		if proj.SoHCurve[i] >= proj.SoHCurve[i-1] {
			t.Fatalf("SoH curve not decreasing at %d", i)
		}
	}
}

func TestProjectLifetimeGentlerCycleLastsLonger(t *testing.T) {
	p := DefaultSoHParams()
	gentle, err := ProjectLifetime(p, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	harsh, err := ProjectLifetime(p, 7, 85)
	if err != nil {
		t.Fatal(err)
	}
	if gentle.CyclesToEOL <= harsh.CyclesToEOL {
		t.Errorf("gentle cycle (%d) should outlast harsh (%d)", gentle.CyclesToEOL, harsh.CyclesToEOL)
	}
}

func TestProjectLifetimeValidation(t *testing.T) {
	p := DefaultSoHParams()
	if _, err := ProjectLifetime(p, 0, 70); err == nil {
		t.Error("dev0 = 0 accepted")
	}
	if _, err := ProjectLifetime(p, 5, 120); err == nil {
		t.Error("avg0 > 100 accepted")
	}
	bad := p
	bad.Alpha = 0
	if _, err := ProjectLifetime(bad, 5, 70); err == nil {
		t.Error("invalid SoH params accepted")
	}
}
