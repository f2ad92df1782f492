package experiments

import (
	"fmt"
	"strings"

	"evclimate/internal/comfort"
	"evclimate/internal/drivecycle"
	"evclimate/internal/runner"
	"evclimate/internal/sim"
)

// Trace is one controller's cabin-temperature trajectory (Fig. 5).
type Trace struct {
	// Name is the controller name.
	Name string
	// Time and CabinC are the sampled trajectory.
	Time, CabinC []float64
	// AvgHVACW and RMSTrackingErrC summarize the run.
	AvgHVACW, RMSTrackingErrC float64
	// Comfort is the Fanger PMV/PPD score of the trajectory (extension
	// beyond the paper's fixed comfort band; see internal/comfort).
	Comfort comfort.TraceScore
}

// Fig5 reproduces the cabin-temperature analysis: the three controllers
// on the ECE_EUDC profile at the options' ambient conditions. The paper's
// qualitative result: On/Off swings across the band, fuzzy is nearly
// flat, and the MPC shows small controlled modulation.
func Fig5(opts Options) ([]Trace, error) {
	opts.fill()
	results, err := opts.runStandard("fig5", "ECE_EUDC", opts.AmbientC, opts.SolarW)
	if err != nil {
		return nil, err
	}
	traces := make([]Trace, 0, 3)
	for _, name := range []string{NameOnOff, NameFuzzy, NameMPC} {
		r := results[name]
		tr := Trace{
			Name:            name,
			Time:            r.Trace.Time,
			CabinC:          r.Trace.CabinC,
			AvgHVACW:        r.AvgHVACW,
			RMSTrackingErrC: r.RMSTrackingErrC,
		}
		score, err := comfort.ScoreTrace(r.Trace.CabinC, comfort.DriverSummer(0))
		if err != nil {
			return nil, err
		}
		tr.Comfort = score
		traces = append(traces, tr)
	}
	return traces, nil
}

// TemperatureRippleC returns max − min cabin temperature after the
// settling period — the fluctuation amplitude Fig. 5 compares.
func (t *Trace) TemperatureRippleC(settleS float64) float64 {
	lo, hi := 1e9, -1e9
	for i, tt := range t.Time {
		if tt < settleS {
			continue
		}
		v := t.CabinC[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// RenderFig5 summarizes the traces (ripple amplitude and RMS error),
// plus a coarse ASCII series per controller.
func RenderFig5(traces []Trace) string {
	var sb strings.Builder
	sb.WriteString("Fig. 5 — Cabin temperature analysis (ECE_EUDC)\n")
	for _, t := range traces {
		fmt.Fprintf(&sb, "%-24s ripple=%.2f °C  rms=%.2f °C  avgHVAC=%.2f kW  PPD=%.1f%%\n",
			t.Name, t.TemperatureRippleC(120), t.RMSTrackingErrC, t.AvgHVACW/1000,
			t.Comfort.MeanPPD)
	}
	sb.WriteString("samples (°C every ~60 s):\n")
	for _, t := range traces {
		fmt.Fprintf(&sb, "%-24s", t.Name)
		step := len(t.Time) / 10
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(t.Time); i += step {
			fmt.Fprintf(&sb, " %5.2f", t.CabinC[i])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fig6Point is one sample of the precool illustration.
type Fig6Point struct {
	// Time in seconds.
	Time float64
	// MotorKW is the electric-motor power.
	MotorKW float64
	// HVACW is the HVAC power chosen by the MPC.
	HVACW float64
	// CabinC is the cabin temperature.
	CabinC float64
}

// Fig6 reproduces the precool illustration: the MPC's HVAC power and
// cabin temperature against the motor power on ECE_EUDC. The paper's
// qualitative result: HVAC power drops during motor peaks and rises
// (precooling) during valleys.
func Fig6(opts Options) ([]Fig6Point, error) {
	opts.fill()
	results, err := opts.runStandard("fig6", "ECE_EUDC", opts.AmbientC, opts.SolarW)
	if err != nil {
		return nil, err
	}
	r := results[NameMPC]
	pts := make([]Fig6Point, len(r.Trace.Time))
	for i := range r.Trace.Time {
		pts[i] = Fig6Point{
			Time:    r.Trace.Time[i],
			MotorKW: r.Trace.MotorW[i] / 1000,
			HVACW:   r.Trace.HVACW[i],
			CabinC:  r.Trace.CabinC[i],
		}
	}
	return pts, nil
}

// PeakValleyHVAC splits the Fig. 6 samples at the median motor power and
// returns the mean HVAC power during high-motor and low-motor periods.
// Precooling shows as valleyHVAC > peakHVAC.
func PeakValleyHVAC(pts []Fig6Point) (peakHVACW, valleyHVACW float64) {
	if len(pts) == 0 {
		return 0, 0
	}
	var mean float64
	for _, p := range pts {
		mean += p.MotorKW
	}
	mean /= float64(len(pts))
	var hiSum, loSum float64
	var hiN, loN int
	for _, p := range pts {
		if p.MotorKW > mean {
			hiSum += p.HVACW
			hiN++
		} else {
			loSum += p.HVACW
			loN++
		}
	}
	if hiN > 0 {
		peakHVACW = hiSum / float64(hiN)
	}
	if loN > 0 {
		valleyHVACW = loSum / float64(loN)
	}
	return peakHVACW, valleyHVACW
}

// RenderFig6 formats the precool analysis.
func RenderFig6(pts []Fig6Point) string {
	peak, valley := PeakValleyHVAC(pts)
	var sb strings.Builder
	sb.WriteString("Fig. 6 — Precool process under the battery lifetime-aware MPC (ECE_EUDC)\n")
	fmt.Fprintf(&sb, "mean HVAC power during motor-power peaks:   %7.1f W\n", peak)
	fmt.Fprintf(&sb, "mean HVAC power during motor-power valleys: %7.1f W\n", valley)
	if valley > peak {
		fmt.Fprintf(&sb, "→ precool confirmed: HVAC shifts %.1f%% of its effort into motor valleys\n",
			100*(valley-peak)/(valley+1e-9))
	} else {
		sb.WriteString("→ precool NOT observed\n")
	}
	sb.WriteString("t(s)  motor(kW)  HVAC(W)  cabin(°C):\n")
	step := len(pts) / 16
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(pts); i += step {
		p := pts[i]
		fmt.Fprintf(&sb, "%5.0f %9.1f %8.0f %9.2f\n", p.Time, p.MotorKW, p.HVACW, p.CabinC)
	}
	return sb.String()
}

// CycleResult is one drive profile's three-controller comparison, the
// shared data behind Figs. 7 and 8.
type CycleResult struct {
	// Cycle is the drive-profile name.
	Cycle string
	// Profile is the evaluated drive profile (ambient applied, possibly
	// truncated).
	Profile *drivecycle.Profile
	// Results holds the per-controller outcomes.
	Results map[string]*sim.Result
}

// RunCycles runs the three controllers over the paper's five evaluation
// profiles (NEDC, US06, ECE_EUDC, SC03, UDDS) at the options' conditions.
// The 15 scenario cells execute in parallel on the sweep engine.
func RunCycles(opts Options) ([]CycleResult, error) {
	opts.fill()
	cycles := make([]runner.CycleSpec, 0, 5)
	for _, c := range drivecycle.EvaluationCycles() {
		cycles = append(cycles, runner.CycleSpec{Name: c.Name})
	}
	sw, err := opts.sweep("cycles", opts.controllerSpecs(), cycles,
		[]runner.Env{{AmbientC: opts.AmbientC, SolarW: opts.SolarW}})
	if err != nil {
		return nil, err
	}
	out := make([]CycleResult, 0, len(cycles))
	for _, cell := range sw.Cells() {
		out = append(out, CycleResult{
			Cycle:   cell[0].Job.Cycle,
			Profile: cell[0].Job.Config.Profile,
			Results: runner.CellMap(cell),
		})
	}
	return out, nil
}

// Fig7Row is one bar group of Fig. 7: SoH degradation normalized to the
// On/Off controller (= 100).
type Fig7Row struct {
	// Cycle is the profile name.
	Cycle string
	// OnOffPct is 100 by construction.
	OnOffPct float64
	// FuzzyPct and MPCPct are the relative degradations.
	FuzzyPct, MPCPct float64
}

// Fig7 derives the battery-lifetime comparison from cycle runs.
func Fig7(cycles []CycleResult) []Fig7Row {
	rows := make([]Fig7Row, 0, len(cycles))
	for _, c := range cycles {
		base := c.Results[NameOnOff].DeltaSoH
		rows = append(rows, Fig7Row{
			Cycle:    c.Cycle,
			OnOffPct: 100,
			FuzzyPct: 100 * c.Results[NameFuzzy].DeltaSoH / base,
			MPCPct:   100 * c.Results[NameMPC].DeltaSoH / base,
		})
	}
	return rows
}

// RenderFig7 formats the comparison.
func RenderFig7(rows []Fig7Row) string {
	var sb strings.Builder
	sb.WriteString("Fig. 7 — SoH degradation relative to On/Off (%), per drive profile\n")
	sb.WriteString("Cycle      On/Off  Fuzzy-based  Lifetime-aware   improvement vs On/Off\n")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %6.1f %12.1f %15.1f   %14.1f%%\n",
			r.Cycle, r.OnOffPct, r.FuzzyPct, r.MPCPct, 100-r.MPCPct)
		sum += 100 - r.MPCPct
	}
	fmt.Fprintf(&sb, "average improvement vs On/Off: %.1f%% (paper: 14%% on average)\n", sum/float64(len(rows)))
	return sb.String()
}

// Fig8Row is one bar group of Fig. 8: average HVAC power in kW.
type Fig8Row struct {
	// Cycle is the profile name.
	Cycle string
	// OnOffKW, FuzzyKW, MPCKW are the average HVAC powers.
	OnOffKW, FuzzyKW, MPCKW float64
}

// Fig8 derives the average-HVAC-power comparison from cycle runs.
func Fig8(cycles []CycleResult) []Fig8Row {
	rows := make([]Fig8Row, 0, len(cycles))
	for _, c := range cycles {
		rows = append(rows, Fig8Row{
			Cycle:   c.Cycle,
			OnOffKW: c.Results[NameOnOff].AvgHVACW / 1000,
			FuzzyKW: c.Results[NameFuzzy].AvgHVACW / 1000,
			MPCKW:   c.Results[NameMPC].AvgHVACW / 1000,
		})
	}
	return rows
}

// RenderFig8 formats the comparison.
func RenderFig8(rows []Fig8Row) string {
	var sb strings.Builder
	sb.WriteString("Fig. 8 — Average HVAC power (kW), per drive profile\n")
	sb.WriteString("Cycle      On/Off  Fuzzy-based  Lifetime-aware   reduction vs On/Off\n")
	var sum float64
	valid := 0
	for _, r := range rows {
		// A near-zero On/Off average means the thermostat never engaged
		// (truncated quick runs): the ratio is meaningless there.
		if r.OnOffKW < 0.05 {
			fmt.Fprintf(&sb, "%-10s %6.2f %12.2f %15.2f   %13s\n",
				r.Cycle, r.OnOffKW, r.FuzzyKW, r.MPCKW, "n/a")
			continue
		}
		red := 100 * (1 - r.MPCKW/r.OnOffKW)
		fmt.Fprintf(&sb, "%-10s %6.2f %12.2f %15.2f   %13.1f%%\n",
			r.Cycle, r.OnOffKW, r.FuzzyKW, r.MPCKW, red)
		sum += red
		valid++
	}
	if valid > 0 {
		fmt.Fprintf(&sb, "average reduction vs On/Off: %.1f%% (paper: 39%% on average)\n", sum/float64(valid))
	} else {
		sb.WriteString("average reduction vs On/Off: n/a (On/Off idle on truncated profiles; run full-length)\n")
	}
	return sb.String()
}
