package charging

import (
	"errors"
	"math"
	"testing"

	"evclimate/internal/battery"
)

func TestParamsValidate(t *testing.T) {
	if p := Level2(); p.Validate() != nil {
		t.Fatal(p.Validate())
	}
	cases := []func(*Params){
		func(p *Params) { p.MaxCurrentA = 0 },
		func(p *Params) { p.CVThresholdSoC = 0 },
		func(p *Params) { p.CVThresholdSoC = 150 },
		func(p *Params) { p.TaperTimeConstS = 0 },
		func(p *Params) { p.Efficiency = 0 },
		func(p *Params) { p.Efficiency = 1.2 },
		func(p *Params) { p.TerminationFrac = 0 },
		func(p *Params) { p.TerminationFrac = 1 },
	}
	for i, mutate := range cases {
		p := Level2()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestChargeArguments(t *testing.T) {
	pack := battery.LeafPack()
	if _, err := Charge(Level2(), pack, 80, 50, 10); err == nil {
		t.Error("from > to accepted")
	}
	if _, err := Charge(Level2(), pack, -5, 50, 10); err == nil {
		t.Error("negative from accepted")
	}
	if _, err := Charge(Level2(), pack, 50, 120, 10); err == nil {
		t.Error("to > 100 accepted")
	}
	if _, err := Charge(Level2(), pack, 50, 90, 0); err == nil {
		t.Error("dt = 0 accepted")
	}
}

func TestConstantCurrentPhaseDuration(t *testing.T) {
	// Charging 30→80 % at 18 A on a 66.2 Ah pack stays in CC (threshold
	// 85 %): time = 0.5·66.2/18 h ≈ 6620 s.
	pack := battery.LeafPack()
	res, err := Charge(Level2(), pack, 30, 80, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * 66.2 / 18 * 3600
	if math.Abs(res.DurationS-want) > 60 {
		t.Errorf("CC duration = %v s, want ≈ %v", res.DurationS, want)
	}
	if math.Abs(res.FinalSoC-80) > 0.1 {
		t.Errorf("final SoC = %v, want 80", res.FinalSoC)
	}
}

func TestWallEnergyIncludesLosses(t *testing.T) {
	pack := battery.LeafPack()
	res, err := Charge(Level2(), pack, 30, 80, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Pack-side energy: 50 % of 23.8 kWh ≈ 11.9 kWh; wall side ≈ /0.9.
	packKWh := 0.5 * pack.EnergyKWh()
	if res.WallEnergyKWh < packKWh {
		t.Errorf("wall energy %v below pack energy %v (missing losses)", res.WallEnergyKWh, packKWh)
	}
	if res.WallEnergyKWh > packKWh/0.9*1.02 {
		t.Errorf("wall energy %v implausibly high", res.WallEnergyKWh)
	}
}

func TestTaperSlowsNearFull(t *testing.T) {
	pack := battery.LeafPack()
	// 80→95 crosses into the CV taper at 85 %.
	res, err := Charge(Level2(), pack, 80, 95, 10)
	if err != nil {
		t.Fatal(err)
	}
	// SoC rate in the first 5 minutes vs the last 5 minutes.
	n := len(res.SoCTrace)
	if n < 80 {
		t.Fatalf("trace too short: %d", n)
	}
	early := res.SoCTrace[30] - res.SoCTrace[0]
	late := res.SoCTrace[n-1] - res.SoCTrace[n-31]
	if late >= early {
		t.Errorf("no taper: early rate %v, late rate %v", early, late)
	}
}

func TestTerminationByTaper(t *testing.T) {
	// Asking for 100 % terminates on the taper threshold short of it.
	pack := battery.LeafPack()
	res, err := Charge(Level2(), pack, 90, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalSoC > 100 {
		t.Errorf("overcharged to %v", res.FinalSoC)
	}
	if res.DurationS <= 0 {
		t.Error("no charging happened")
	}
}

func TestSoCTraceMonotone(t *testing.T) {
	pack := battery.LeafPack()
	res, err := Charge(Level2(), pack, 40, 90, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.SoCTrace); i++ {
		if res.SoCTrace[i] < res.SoCTrace[i-1] {
			t.Fatalf("SoC fell during charging at %d", i)
		}
	}
}

// fullCycleStats is the tests' full-cycle oracle: it concatenates a
// drive's SoC trace with the recharge that restores its starting SoC
// and returns SoCdev and SoCavg over the whole discharging/charging
// cycle (Eqs. 16–17 without the paper's fixed-pattern shortcut), the
// charge sampled at the drive's period.
func fullCycleStats(driveTrace []float64, driveDt float64, p Params, pack battery.Params) (dev, avg float64, err error) {
	if len(driveTrace) < 2 {
		return 0, 0, errors.New("charging: drive trace too short")
	}
	endSoC, startSoC := driveTrace[len(driveTrace)-1], driveTrace[0]
	if endSoC >= startSoC {
		// Nothing to recharge (e.g. a downhill run): cycle = drive.
		return cycleStats(driveTrace)
	}
	chg, err := Charge(p, pack, endSoC, startSoC, driveDt)
	if err != nil {
		return 0, 0, err
	}
	full := append(append([]float64(nil), driveTrace...), chg.SoCTrace[1:]...) // skip the duplicated seam
	return cycleStats(full)
}

// cycleStats returns SoCdev and SoCavg (Eqs. 16–17) of a trace.
func cycleStats(trace []float64) (dev, avg float64, err error) {
	var s battery.SoCStats
	for _, v := range trace {
		s.Add(v)
	}
	return s.Stats()
}

func TestFullCycleStats(t *testing.T) {
	// A synthetic drive: 90 → 70 % linear discharge over 1200 s.
	drive := make([]float64, 1201)
	for i := range drive {
		drive[i] = 90 - 20*float64(i)/1200
	}
	dev, avg, err := fullCycleStats(drive, 1, Level2(), battery.LeafPack())
	if err != nil {
		t.Fatal(err)
	}
	// The full cycle spans 70–90 %: average stays inside, deviation is
	// positive and bounded by the half-range.
	if avg < 70 || avg > 90 {
		t.Errorf("cycle average %v outside [70, 90]", avg)
	}
	if dev <= 0 || dev > 10 {
		t.Errorf("cycle deviation %v outside (0, 10]", dev)
	}

	// The fixed-pattern shortcut (drive stats + ChargeDevOffset) should
	// approximate the computed full-cycle deviation within a factor ~2 —
	// this is the test that grounds the paper's constant.
	dDev, _, err := cycleStats(drive)
	if err != nil {
		t.Fatal(err)
	}
	soh := battery.DefaultSoHParams()
	approx := dDev + soh.ChargeDevOffset
	if dev > 2.5*approx || dev < approx/2.5 {
		t.Errorf("fixed-pattern approximation off: full %v vs approx %v", dev, approx)
	}
}

func TestFullCycleStatsNoRecharge(t *testing.T) {
	// Regenerative downhill: SoC ends higher; cycle = drive trace alone.
	drive := []float64{70, 71, 72, 73}
	dev, avg, err := fullCycleStats(drive, 1, Level2(), battery.LeafPack())
	if err != nil {
		t.Fatal(err)
	}
	wantDev, wantAvg, err := cycleStats(drive)
	if err != nil {
		t.Fatal(err)
	}
	if dev != wantDev || avg != wantAvg {
		t.Errorf("no-recharge stats mismatch: %v/%v vs %v/%v", dev, avg, wantDev, wantAvg)
	}
	if _, _, err := fullCycleStats([]float64{1}, 1, Level2(), battery.LeafPack()); err == nil {
		t.Error("short trace accepted")
	}
}
