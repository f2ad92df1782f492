package experiments

import (
	"strings"
	"testing"

	"evclimate/internal/core"
)

// quickOpts keeps MPC runs short: truncated profiles and a reduced SQP
// budget. Profiles must stay ≥ 300 s — the On/Off thermostat's cycle
// period — or the baseline never engages. The full-length experiments run
// in cmd/evbench and the repository benchmarks.
func quickOpts() Options {
	cfg := core.DefaultConfig()
	cfg.SQPMaxIter = 12
	return Options{MaxProfileS: 300, MPC: &cfg}
}

func TestFig1Shape(t *testing.T) {
	rows, err := Fig1(Fig1Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		evSum := r.EVMotorPct + r.EVHVACPct + r.EVAccPct
		iceSum := r.ICEEnginePct + r.ICEHVACPct + r.ICEAccPct
		if evSum < 99.9 || evSum > 100.1 || iceSum < 99.9 || iceSum > 100.1 {
			t.Errorf("ambient %v: percentages don't sum to 100 (EV %v, ICE %v)", r.AmbientC, evSum, iceSum)
		}
		if r.EVHVACPct < 0 || r.ICEHVACPct < 0 {
			t.Errorf("ambient %v: negative HVAC share", r.AmbientC)
		}
	}
	cold, mild, hot := rows[0], rows[3], rows[5]
	// Paper Fig. 1: the EV pays for HVAC at BOTH temperature extremes
	// (V-shape); the ICE vehicle heats for free.
	if !(cold.EVHVACPct > mild.EVHVACPct && hot.EVHVACPct > mild.EVHVACPct) {
		t.Errorf("EV HVAC share not V-shaped: cold %v, mild %v, hot %v",
			cold.EVHVACPct, mild.EVHVACPct, hot.EVHVACPct)
	}
	if cold.ICEHVACPct > 5 {
		t.Errorf("ICE heats with waste engine heat; HVAC share at −10 °C = %v%%", cold.ICEHVACPct)
	}
	// EV HVAC share dominates ICE share at the cold extreme (paper: up to
	// 20 % vs 9 %).
	if cold.EVHVACPct < 2*cold.ICEHVACPct {
		t.Errorf("EV/ICE HVAC share contrast missing: %v vs %v", cold.EVHVACPct, cold.ICEHVACPct)
	}
	if cold.EVHVACPct < 10 || cold.EVHVACPct > 35 {
		t.Errorf("EV HVAC share at −10 °C = %v%%, want 10–35%%", cold.EVHVACPct)
	}
	out := RenderFig1(rows)
	if !strings.Contains(out, "Fig. 1") || strings.Count(out, "\n") < 7 {
		t.Errorf("render too short:\n%s", out)
	}
}

func TestFig5ControllerCharacters(t *testing.T) {
	traces, err := Fig5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("traces = %d, want 3", len(traces))
	}
	byName := map[string]*Trace{}
	for i := range traces {
		byName[traces[i].Name] = &traces[i]
	}
	onoff, fuzzy, mpc := byName[NameOnOff], byName[NameFuzzy], byName[NameMPC]
	if onoff == nil || fuzzy == nil || mpc == nil {
		t.Fatalf("missing controllers: %v", traces)
	}
	// Paper Fig. 5: On/Off fluctuates the most; fuzzy and MPC are tight.
	settle := 60.0
	if onoff.TemperatureRippleC(settle) <= fuzzy.TemperatureRippleC(settle) {
		t.Errorf("On/Off ripple %v should exceed fuzzy %v",
			onoff.TemperatureRippleC(settle), fuzzy.TemperatureRippleC(settle))
	}
	if onoff.TemperatureRippleC(settle) <= mpc.TemperatureRippleC(settle) {
		t.Errorf("On/Off ripple %v should exceed MPC %v",
			onoff.TemperatureRippleC(settle), mpc.TemperatureRippleC(settle))
	}
	out := RenderFig5(traces)
	if !strings.Contains(out, NameMPC) {
		t.Errorf("render missing controller:\n%s", out)
	}
}

func TestFig6PrecoolShape(t *testing.T) {
	// The precool schedule needs a full SQP budget to express; this is a
	// single MPC run, so use the default 30-iteration budget.
	opts := quickOpts()
	cfg := core.DefaultConfig()
	opts.MPC = &cfg
	pts, err := Fig6(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	peak, valley := PeakValleyHVAC(pts)
	// The defining behaviour (paper Fig. 6): HVAC effort concentrates in
	// motor-power valleys.
	if valley <= peak {
		t.Errorf("no precool: valley %v W ≤ peak %v W", valley, peak)
	}
	out := RenderFig6(pts)
	if !strings.Contains(out, "precool confirmed") {
		t.Errorf("render did not confirm precool:\n%s", out)
	}
}

func TestFig7Fig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("five MPC runs; skipped in -short mode")
	}
	cycles, err := RunCycles(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 5 {
		t.Fatalf("cycles = %d, want 5", len(cycles))
	}
	f7 := Fig7(cycles)
	f8 := Fig8(cycles)
	// On truncated profiles the On/Off thermostat coasts through its
	// initial free-drift period, so the authoritative MPC-vs-On/Off
	// ordering is asserted on a full-length run (TestFullLengthOrdering)
	// and by cmd/evbench. Here we check structure and the MPC-vs-fuzzy
	// relation, which is fair at any length (both act continuously).
	winsSoH, winsPower := 0, 0
	for i, r := range f7 {
		if r.OnOffPct != 100 {
			t.Errorf("%s: OnOff reference %v != 100", r.Cycle, r.OnOffPct)
		}
		// Loose bounds: truncation cuts off the precool payback phase,
		// inflating the MPC's apparent power on short windows.
		if r.MPCPct <= r.FuzzyPct*1.05 {
			winsSoH++
		}
		if f8[i].MPCKW <= f8[i].FuzzyKW*1.6 {
			winsPower++
		}
		if f8[i].OnOffKW <= 0 || f8[i].MPCKW <= 0 || f8[i].FuzzyKW <= 0 {
			t.Errorf("%s: non-positive power", r.Cycle)
		}
	}
	if winsSoH < 4 {
		t.Errorf("MPC ΔSoH beat fuzzy on only %d/5 cycles:\n%s", winsSoH, RenderFig7(f7))
	}
	if winsPower < 4 {
		t.Errorf("MPC power competitive with fuzzy on only %d/5 cycles:\n%s", winsPower, RenderFig8(f8))
	}
}

// TestFullLengthOrdering asserts the paper's headline ordering — MPC
// beats On/Off on both average HVAC power and ΔSoH — on one full-length
// ECE_EUDC hot-day run.
func TestFullLengthOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length MPC run; skipped in -short mode")
	}
	opts := quickOpts()
	opts.MaxProfileS = 0 // full length
	rows, err := Table1(opts, []float64{35})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.MPCKW >= r.OnOffKW {
		t.Errorf("MPC %v kW ≥ On/Off %v kW at 35 °C", r.MPCKW, r.OnOffKW)
	}
	if r.ImpOnOffPct <= 2 {
		t.Errorf("SoH improvement vs On/Off = %v%%, want > 2%%", r.ImpOnOffPct)
	}
	// Table I scale: On/Off around 3 kW, MPC around 2 kW at 35 °C.
	if r.OnOffKW < 1.5 || r.OnOffKW > 5.5 {
		t.Errorf("On/Off power %v kW outside Table I scale", r.OnOffKW)
	}
	if r.MPCKW < 1 || r.MPCKW > 4 {
		t.Errorf("MPC power %v kW outside Table I scale", r.MPCKW)
	}
}

func TestTable1HotAndCold(t *testing.T) {
	rows, err := Table1(quickOpts(), []float64{35, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	hot, cold := rows[0], rows[1]
	// Structural checks on truncated profiles (the On/Off ordering is
	// asserted full-length in TestFullLengthOrdering): powers positive,
	// MPC in the kilowatt band at both extremes, cold row heavier than
	// 21 °C would be.
	for _, r := range rows {
		if r.OnOffKW <= 0 || r.FuzzyKW <= 0 || r.MPCKW <= 0 {
			t.Errorf("%v °C: non-positive power row %+v", r.AmbientC, r)
		}
	}
	if hot.MPCKW < 1 || hot.MPCKW > 5 {
		t.Errorf("MPC power at 35 °C = %v kW, want 1–5", hot.MPCKW)
	}
	if cold.MPCKW < 1.5 || cold.MPCKW > 6 {
		t.Errorf("MPC power at 0 °C = %v kW, want 1.5–6", cold.MPCKW)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "Table I") || strings.Count(out, "°C") < 2 {
		t.Errorf("render malformed:\n%s", out)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fill()
	if o.AmbientC != 35 || o.SolarW != 400 || o.TargetC != 24 || o.ComfortBandC != 3 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if mpcControlDt != 5 || baselineControlDt != 1 {
		t.Errorf("control periods wrong: MPC %v s, baselines %v s", mpcControlDt, baselineControlDt)
	}
	cfg := o.mpcConfig()
	if cfg.Horizon != core.DefaultConfig().Horizon {
		t.Error("mpcConfig default mismatch")
	}
}

func TestRunFleetSmall(t *testing.T) {
	mcfg := core.DefaultConfig()
	mcfg.SQPMaxIter = 10
	s, err := RunFleet(Options{MaxProfileS: 150, MPC: &mcfg}, FleetConfig{Trips: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Trips) != 3 {
		t.Fatalf("trips = %d", len(s.Trips))
	}
	for _, tr := range s.Trips {
		if tr.OnOffDeltaSoH <= 0 || tr.MPCDeltaSoH <= 0 {
			t.Errorf("%s: degenerate ΔSoH %+v", tr.Label, tr)
		}
	}
	if s.MinSoHSavingPct > s.MedianSoHSavingPct || s.MedianSoHSavingPct > s.MaxSoHSavingPct {
		t.Errorf("distribution stats inconsistent: %+v", s)
	}
	// Deterministic under the same seed.
	s2, err := RunFleet(Options{MaxProfileS: 150, MPC: &mcfg}, FleetConfig{Trips: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanSoHSavingPct != s2.MeanSoHSavingPct {
		t.Errorf("fleet sweep not reproducible: %v vs %v", s.MeanSoHSavingPct, s2.MeanSoHSavingPct)
	}
	out := RenderFleet(s)
	if !strings.Contains(out, "Fleet Monte-Carlo") || !strings.Contains(out, "wins") {
		t.Errorf("render malformed:\n%s", out)
	}
}

func TestRangeComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("needs cycle runs")
	}
	cycles, err := RunCycles(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RangeComparison(cycles, 21.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// HVAC always costs range; the no-HVAC reference is the ceiling.
		if r.OnOffKm >= r.NoHVACKm || r.MPCKm >= r.NoHVACKm {
			t.Errorf("%s: HVAC-on ranges exceed the no-HVAC ceiling: %+v", r.Cycle, r)
		}
		if r.OnOffKm <= 0 || r.MPCKm <= 0 {
			t.Errorf("%s: non-positive range", r.Cycle)
		}
	}
	out := RenderRange(rows)
	if !strings.Contains(out, "Driving range") {
		t.Errorf("render malformed:\n%s", out)
	}
}
