package experiments

import (
	"context"
	"fmt"
	"strings"

	"evclimate/internal/core"
	"evclimate/internal/faults"
	"evclimate/internal/runner"
)

// NameSupervisedMPC labels the lifetime-aware MPC wrapped in the
// degradation ladder, as swept by the fault experiment.
const NameSupervisedMPC = "Supervised MPC"

// FaultRow is one (fault scenario, controller) cell of the fault sweep.
type FaultRow struct {
	// Scenario is the built-in fault-scenario name, or "none" for the
	// clean baseline.
	Scenario string
	// Controller is the controller label.
	Controller string
	// AvgHVACKW is the mean HVAC electrical power.
	AvgHVACKW float64
	// DeltaSoH is the battery SoH degradation over the cycle, percent.
	DeltaSoH float64
	// ComfortViolationFrac is the post-settling fraction of time outside
	// the comfort zone.
	ComfortViolationFrac float64
	// RMSTrackingErrC is the post-settling RMS tracking error.
	RMSTrackingErrC float64
}

// FaultSweep runs the baselines and the supervised MPC through the named
// built-in fault scenarios — all of them when names is empty — plus a
// clean control run, on the ECE_EUDC profile, and reports how much
// comfort and battery life each failure mode costs. Profiles are capped
// at 600 s by default — every built-in fault window closes by 480 s — so
// the sweep measures fault response plus recovery, not a long clean tail.
func FaultSweep(opts Options, names []string) ([]FaultRow, error) {
	opts.fill()
	if opts.MaxProfileS == 0 {
		opts.MaxProfileS = 600
	}
	if len(names) == 0 {
		names = faults.BuiltinNames()
	}

	fltSpecs := []faults.Spec{{Name: "none"}}
	for _, name := range names {
		flt, err := faults.Builtin(name)
		if err != nil {
			return nil, err
		}
		fltSpecs = append(fltSpecs, flt)
	}

	controllers := []runner.ControllerSpec{
		runner.OnOffSpec(baselineControlDt),
		runner.FuzzySpec(baselineControlDt),
		runner.SupervisedMPCSpec(core.SupervisedConfig{MPC: opts.mpcConfig()}, mpcControlDt),
	}
	spec := runner.Spec{
		Controllers:  controllers,
		Cycles:       []runner.CycleSpec{{Name: "ECE_EUDC"}},
		Envs:         []runner.Env{{AmbientC: opts.AmbientC, SolarW: opts.SolarW}},
		Targets:      []float64{opts.TargetC},
		ComfortBandC: opts.ComfortBandC,
		MaxProfileS:  opts.MaxProfileS,
		Faults:       fltSpecs,
	}
	sw, err := runner.Run(context.Background(), spec, opts.runOptions("faultsweep"))
	if err != nil {
		return nil, err
	}
	if err := sw.FirstErr(); err != nil {
		return nil, err
	}

	var rows []FaultRow
	for i := range sw.Jobs {
		jr := &sw.Jobs[i]
		scenario := "none"
		if jr.Job.Fault != nil {
			scenario = jr.Job.Fault.Name
		}
		res := jr.Result
		rows = append(rows, FaultRow{
			Scenario:             scenario,
			Controller:           jr.Job.Controller.Label,
			AvgHVACKW:            res.AvgHVACW / 1000,
			DeltaSoH:             res.DeltaSoH,
			ComfortViolationFrac: res.ComfortViolationFrac,
			RMSTrackingErrC:      res.RMSTrackingErrC,
		})
	}
	return rows, nil
}

// RenderFaultSweep formats the fault sweep grouped by scenario.
func RenderFaultSweep(rows []FaultRow) string {
	var sb strings.Builder
	sb.WriteString("Fault sweep — controller robustness under injected faults (ECE_EUDC)\n")
	sb.WriteString("Scenario       Controller              HVAC kW   ΔSoH %   discomfort   RMS °C\n")
	prev := ""
	for _, r := range rows {
		name := r.Scenario
		if name == prev {
			name = ""
		} else {
			prev = name
		}
		fmt.Fprintf(&sb, "%-14s %-22s %8.2f %8.4f %12.3f %8.2f\n",
			name, r.Controller, r.AvgHVACKW, r.DeltaSoH, r.ComfortViolationFrac, r.RMSTrackingErrC)
	}
	return sb.String()
}
