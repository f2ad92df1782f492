// Command evsim runs one closed-loop co-simulation: a drive cycle, an
// ambient condition, and a climate controller, and reports the metrics the
// paper evaluates (average HVAC power, ΔSoH, SoC statistics, comfort).
//
// Usage:
//
//	evsim -cycle ECE_EUDC -controller mpc -ambient 35
//	evsim -cycle UDDS -controller onoff -ambient 0 -csv trace.csv
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"evclimate/internal/battery"
	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/core"
	"evclimate/internal/drivecycle"
	"evclimate/internal/runner"
	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
)

func main() {
	cycleName := flag.String("cycle", "ECE_EUDC", "drive cycle: "+strings.Join(drivecycle.Names(), ", "))
	ctrlName := flag.String("controller", "mpc", "controller: onoff|fuzzy|pid|mpc")
	ambient := flag.Float64("ambient", 35, "ambient temperature (°C)")
	solar := flag.Float64("solar", 400, "solar thermal load (W)")
	target := flag.Float64("target", 24, "cabin target temperature (°C)")
	band := flag.Float64("comfort", 3, "comfort-zone half width (°C)")
	soak := flag.Bool("soak", false, "start with a heat-soaked cabin at ambient temperature")
	csvPath := flag.String("csv", "", "write the full trace to this CSV file")
	traceOut := flag.String("trace", "", "write a JSONL step trace to this file")
	traceTiming := flag.Bool("trace-timing", false, "keep wall-clock latency in the step trace (nondeterministic)")
	metricsOut := flag.String("metrics", "", "write a deterministic Prometheus text metrics dump to this file (wall-clock series excluded; -pprof's /metrics serves them live)")
	manifestOut := flag.String("manifest", "", "write the deterministic run manifest to this file")
	pprofAddr := flag.String("pprof", "", "serve pprof, expvar, and /metrics on this address (e.g. localhost:6060)")
	ckptPath := flag.String("checkpoint", "", "checkpoint file: written every -checkpoint-every steps (and on SIGINT/SIGTERM), resumed with -resume")
	ckptEvery := flag.Int("checkpoint-every", 300, "checkpoint cadence in control steps (needs -checkpoint)")
	resume := flag.Bool("resume", false, "resume the run from -checkpoint (bit-identical to an uninterrupted run)")
	flag.Parse()

	if *resume && *ckptPath == "" {
		fatalIf(fmt.Errorf("-resume needs -checkpoint"))
	}

	cyc, err := drivecycle.ByName(*cycleName)
	fatalIf(err)
	profile := cyc.Profile(1).WithAmbient(*ambient).WithSolar(*solar)

	cfg := sim.DefaultConfig(profile)
	cfg.TargetC = *target
	cfg.ComfortBandC = *band
	cfg.InitialCabinC = *target
	if *soak {
		cfg.UseAmbientStart = true
	}

	hvac, err := cabin.New(cfg.Cabin)
	fatalIf(err)

	var ctrl control.Controller
	switch strings.ToLower(*ctrlName) {
	case "onoff", "on/off":
		ctrl = control.NewOnOff(hvac)
	case "fuzzy":
		ctrl = control.NewFuzzy(hvac)
	case "pid":
		ctrl = control.NewPID(hvac)
	case "mpc", "lifetime", "lifetime-aware", "mpc-economy", "mpc-comfort":
		mcfg := core.DefaultConfig()
		switch strings.ToLower(*ctrlName) {
		case "mpc-economy":
			mcfg.Weights = core.EconomyWeights()
		case "mpc-comfort":
			mcfg.Weights = core.ComfortWeights()
		}
		mpc, err := core.New(mcfg)
		fatalIf(err)
		ctrl = mpc
		cfg.ControlDt = mcfg.Dt
		cfg.ForecastSteps = mcfg.Horizon
	default:
		fatalIf(fmt.Errorf("unknown controller %q (want onoff|fuzzy|pid|mpc|mpc-economy|mpc-comfort)", *ctrlName))
	}

	// Observability wiring: a registry plus (for -trace) a step-trace
	// ring feeding one sink for the run.
	var reg *telemetry.Registry
	var rec *telemetry.StepTrace
	if *traceOut != "" || *metricsOut != "" || *manifestOut != "" || *pprofAddr != "" {
		reg = telemetry.NewRegistry()
		if *traceOut != "" {
			rec = telemetry.NewStepTrace(0)
		}
		cfg.Telemetry = telemetry.NewSink(reg, rec,
			telemetry.L("cycle", *cycleName),
			telemetry.L("controller", strings.ToLower(*ctrlName)))
	}
	if *pprofAddr != "" {
		dbg, err := telemetry.StartDebugServer(*pprofAddr, reg)
		fatalIf(err)
		defer dbg.Close()
		fmt.Printf("debug server on http://%s — /debug/pprof, /debug/vars, /metrics\n", dbg.Addr)
	}

	eng, err := sim.New(cfg)
	fatalIf(err)

	// Durability wiring: a SIGINT/SIGTERM drains the run at the next
	// control step, flushing a final checkpoint (when -checkpoint is
	// set) so the exact step can be resumed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ro := sim.RunOptions{Context: ctx}
	if *ckptPath != "" {
		ro.CheckpointEvery = *ckptEvery
		ro.OnCheckpoint = func(ck *sim.Checkpoint) error {
			return writeCheckpoint(*ckptPath, ck)
		}
		if *resume {
			ck, err := readCheckpoint(*ckptPath)
			fatalIf(err)
			ro.Resume = ck
			fmt.Printf("resuming from %s (step %d, %s)\n", *ckptPath, ck.Step, ck.Controller)
		}
	}
	res, err := eng.RunWith(ctrl, ro)
	if err != nil && ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "evsim: interrupted: %v\n", err)
		if *ckptPath != "" {
			fmt.Fprintf(os.Stderr, "evsim: checkpoint flushed; resume with -checkpoint %s -resume\n", *ckptPath)
		} else {
			fmt.Fprintln(os.Stderr, "evsim: re-run with -checkpoint FILE to make runs resumable")
		}
		os.Exit(3)
	}
	fatalIf(err)
	if *ckptPath != "" {
		// A finished run needs no checkpoint; leaving one behind would
		// invite resuming a completed trajectory.
		os.Remove(*ckptPath)
	}

	st := profile.Stats()
	fmt.Printf("cycle        %s  (%.0f s, %.2f km, max %.0f km/h)\n", *cycleName, st.Duration, st.DistanceKm, st.MaxSpeedKmh)
	fmt.Printf("controller   %s\n", res.Controller)
	fmt.Printf("ambient      %.1f °C, solar %.0f W, target %.1f ± %.1f °C\n", *ambient, *solar, *target, *band)
	fmt.Printf("avg HVAC     %.2f kW   (motor %.2f kW, total %.2f kW)\n", res.AvgHVACW/1000, res.AvgMotorW/1000, res.AvgTotalW/1000)
	fmt.Printf("HVAC energy  %.3f kWh\n", res.HVACEnergyKWh)
	fmt.Printf("SoC          %.2f %% → %.2f %%  (dev %.3f, avg %.2f)\n", cfg.BMS.InitialSoC, res.FinalSoC, res.SoCDev, res.SoCAvg)
	fmt.Printf("ΔSoH         %.5f %% per cycle → ≈ %.0f cycles to end of life\n", res.DeltaSoH, battery.LifetimeCycles(res.DeltaSoH))
	fmt.Printf("comfort      %.1f %% of time outside zone, RMS error %.2f °C\n", 100*res.ComfortViolationFrac, res.RMSTrackingErrC)
	if mpc, ok := ctrl.(*core.Controller); ok {
		ms := mpc.Stats()
		fmt.Printf("MPC solver   %+v, %.2f SQP iterations per solve\n", ms, ms.AvgSQPIters())
	}

	if *csvPath != "" {
		fatalIf(writeCSV(*csvPath, res))
		fmt.Printf("trace        written to %s\n", *csvPath)
	}

	if *traceOut != "" {
		fatalIf(writeFileWith(*traceOut, func(f *os.File) error {
			return telemetry.WriteJSONL(f, rec.Spans(), *traceTiming)
		}))
		fmt.Printf("step trace   %d spans written to %s\n", len(rec.Spans()), *traceOut)
	}
	if *metricsOut != "" {
		fatalIf(writeFileWith(*metricsOut, func(f *os.File) error {
			return reg.Snapshot(telemetry.DeterministicFilter).WritePrometheus(f)
		}))
		fmt.Printf("metrics      written to %s\n", *metricsOut)
	}
	if *manifestOut != "" {
		// The manifest reuses the sweep engine's scenario fingerprint so a
		// single evsim run and the equivalent sweep job hash identically.
		job := runner.Job{Cycle: *cycleName, Controller: runner.ControllerSpec{Label: res.Controller}, Config: cfg}
		fp := telemetry.FormatFingerprint(job.Fingerprint())
		man := telemetry.NewManifest("evsim")
		man.AddRun(telemetry.RunInfo{
			Label:       "run",
			Fingerprint: fp,
			Jobs: []telemetry.JobInfo{{
				Cycle:       *cycleName,
				Controller:  res.Controller,
				Fingerprint: fp,
			}},
		})
		man.Finalize(telemetry.GitDescribe(""), reg.Snapshot(telemetry.DeterministicFilter))
		fatalIf(man.WriteFile(*manifestOut))
		fmt.Printf("manifest     written to %s\n", *manifestOut)
	}
}

// writeCheckpoint persists a checkpoint atomically
// (runner.WriteFileAtomic) so an interrupt during the write never
// corrupts the previous checkpoint.
func writeCheckpoint(path string, ck *sim.Checkpoint) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return runner.WriteFileAtomic(path, data)
}

func readCheckpoint(path string) (*sim.Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ck sim.Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		// Unmarshal fills what it can, so an older schema still shows
		// its version even though its trace does not decode.
		if ck.Version != 0 && ck.Version != sim.CheckpointVersion {
			return nil, fmt.Errorf("checkpoint %s: version %d, this build reads version %d", path, ck.Version, sim.CheckpointVersion)
		}
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return &ck, nil
}

// writeFileWith creates path and hands it to fn, closing on all paths.
func writeFileWith(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeCSV(path string, res *sim.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"time_s", "cabin_C", "outside_C", "motor_W", "heater_W", "cooler_W", "fan_W", "hvac_W", "total_W", "soc_pct", "supply_C", "coil_C", "recirc", "airflow_kg_s"}); err != nil {
		return err
	}
	tr := res.Trace
	for i := range tr.Time {
		rec := []float64{
			tr.Time[i], tr.CabinC[i], tr.OutsideC[i], tr.MotorW[i],
			tr.HeaterW[i], tr.CoolerW[i], tr.FanW[i], tr.HVACW[i],
			tr.TotalW[i], tr.SoC[i],
			tr.Inputs[i].SupplyTempC, tr.Inputs[i].CoilTempC,
			tr.Inputs[i].Recirc, tr.Inputs[i].AirFlowKgS,
		}
		row := make([]string, len(rec))
		for j, v := range rec {
			row[j] = strconv.FormatFloat(v, 'g', 8, 64)
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "evsim:", err)
		os.Exit(1)
	}
}
