// Command evbench regenerates the paper's evaluation: every figure and
// table of Sec. IV (Fig. 1, Fig. 5, Fig. 6, Fig. 7, Fig. 8, Table I).
//
// Usage:
//
//	evbench                 # run everything (several minutes: ~30 MPC runs)
//	evbench -exp fig7       # run one experiment (fig1|fig5|fig6|fig7|fig8|table1)
//	evbench -ambient 30     # override the hot-day ambient temperature
//	evbench -quick          # truncate profiles to 200 s for a fast smoke run
//	evbench -workers 8      # sweep worker-pool size (default GOMAXPROCS)
//	evbench -exp faults     # fault-injection sweep (opt-in, like ablate)
//	evbench -exp faults -fault-scenarios stuck,noisy   # a subset
//
// Crash-safe sweeps: -journal DIR records every finished job in an
// fsync'd write-ahead log; after a crash or Ctrl-C, the same command
// plus -resume replays the finished jobs and continues the rest
// (bit-identical to an uninterrupted run). -job-timeout bounds each
// job's wall-clock; -retries re-runs crashed or timed-out jobs with
// backoff; -checkpoint-every N checkpoints in-flight jobs every N sim
// steps so resumption continues mid-cycle.
//
// Distributed sweeps: -serve ADDR coordinates the "dist" scenario grid
// over the crash-tolerant fabric (internal/fabric), leasing sharded
// work units to any number of `evbench -join URL` workers on this or
// other machines. Workers that die are reaped and their units
// reassigned; with -journal the coordinator itself survives a crash
// and resumes. The stitched result — trace, metrics, manifest — is
// byte-identical to `evbench -exp dist` run single-process.
//
// All scenario grids execute on the internal/runner worker pool; results
// are deterministic for any worker count. One result cache is shared
// across the whole invocation, so experiments that evaluate the same
// scenario (e.g. Fig. 5 and Fig. 6) simulate it once. With -journal
// -resume, every result replayed from a journal warms that cache, so a
// resumed invocation re-serves earlier sweeps' cells from their
// build-checked journals.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"evclimate/internal/experiments"
	"evclimate/internal/fabric"
	"evclimate/internal/faults"
	"evclimate/internal/runner"
	"evclimate/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// experimentNames are the valid -exp values.
var experimentNames = []string{"all", "fig1", "fig5", "fig6", "fig7", "fig8", "table1", "ablate", "fleet", "faults", "dist", "cold"}

// run is the testable entrypoint: it parses args, executes the selected
// experiments, and returns the process exit code — 0 only when every
// selected experiment (and every job inside it) succeeded, 2 for usage
// errors, 3 for an interrupted (resumable) run, 1 otherwise.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: all|fig1|fig5|fig6|fig7|fig8|table1 (opt-in: ablate|faults|fleet|dist|cold)")
	ambient := fs.Float64("ambient", 35, "hot-day ambient temperature (°C) for figs 5-8")
	solar := fs.Float64("solar", 400, "solar thermal load (W)")
	quick := fs.Bool("quick", false, "truncate profiles to 200 s for a fast smoke run")
	workers := fs.Int("workers", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	batch := fs.Int("batch", 0, "lockstep-batch lanes for eligible sweep jobs (0 = default 16, negative = one lane per job)")
	scenarios := fs.String("fault-scenarios", "",
		"comma-separated fault scenarios for -exp faults (default: all of "+
			strings.Join(faults.BuiltinNames(), ",")+")")
	traceOut := fs.String("trace", "", "write a deterministic JSONL step trace to this file")
	traceSteps := fs.Int("trace-steps", 0, "per-job step-trace ring capacity (0 = default 4096)")
	metricsOut := fs.String("metrics", "", "write a deterministic Prometheus text metrics dump to this file (wall-clock series excluded; -pprof's /metrics serves them live)")
	manifestOut := fs.String("manifest", "", "write the deterministic run manifest to this file")
	pprofAddr := fs.String("pprof", "", "serve pprof, expvar, and /metrics on this address (e.g. localhost:6060)")
	journalDir := fs.String("journal", "", "directory for the crash-safe job journal (one JSONL log per sweep)")
	resume := fs.Bool("resume", false, "resume existing journals in -journal, replaying finished jobs")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job watchdog deadline (0 = none)")
	retries := fs.Int("retries", 0, "retry attempts for crashed or timed-out jobs (total attempts = retries+1)")
	checkpointEvery := fs.Int("checkpoint-every", 0, "checkpoint in-flight jobs every N sim steps (needs -journal)")
	fsyncEvery := fs.Int("fsync-every", 1, "fsync the journal every N records")
	serve := fs.String("serve", "", "coordinate the selected distributable sweep (dist, or -exp cold) over the fabric on this address (e.g. :7070)")
	join := fs.String("join", "", "join a fabric coordinator as a worker (e.g. http://host:7070)")
	unitSize := fs.Int("unit", 0, "jobs per leased fabric work unit (0 = default)")
	leaseTTL := fs.Duration("lease-ttl", 0, "fabric lease heartbeat deadline (0 = default)")
	spill := fs.Bool("spill", false, "keep only the journal position of each collected record in the coordinator's memory and read the records back from the journal at stitch (bounds coordinator memory; needs -serve and -journal)")
	callTimeout := fs.Duration("call-timeout", 0, "fabric worker per-request deadline (0 = derived from the lease TTL; needs -join)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "evbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *checkpointEvery > 0 && *journalDir == "" {
		fmt.Fprintln(stderr, "evbench: -checkpoint-every needs -journal")
		return 2
	}
	if *resume && *journalDir == "" {
		fmt.Fprintln(stderr, "evbench: -resume needs -journal")
		return 2
	}
	if *serve != "" && *join != "" {
		fmt.Fprintln(stderr, "evbench: -serve and -join are mutually exclusive")
		return 2
	}
	if *spill && *serve == "" {
		fmt.Fprintln(stderr, "evbench: -spill needs -serve")
		return 2
	}
	if *spill && *journalDir == "" {
		fmt.Fprintln(stderr, "evbench: -spill needs -journal")
		return 2
	}
	if *callTimeout != 0 && *join == "" {
		fmt.Fprintln(stderr, "evbench: -call-timeout needs -join")
		return 2
	}
	if !slices.Contains(experimentNames, *exp) {
		fmt.Fprintf(stderr, "evbench: unknown experiment %q (want one of %s)\n", *exp, strings.Join(experimentNames, ", "))
		return 2
	}

	cache := runner.NewCache()
	opts := experiments.Options{AmbientC: *ambient, SolarW: *solar, Ctx: ctx}
	opts.Run = runner.Options{Workers: *workers, BatchSize: *batch, Cache: cache, JobTimeout: *jobTimeout}
	if *quick {
		opts.MaxProfileS = 200
	}
	if *retries > 0 {
		opts.Run.Retry = runner.RetryPolicy{MaxAttempts: *retries + 1}
	}
	if *journalDir != "" {
		opts.Run.Journal = &runner.JournalConfig{
			Dir:             *journalDir,
			Resume:          *resume,
			FsyncEvery:      *fsyncEvery,
			CheckpointEvery: *checkpointEvery,
		}
	}

	// A joining worker is a pure executor: it pulls leased units, runs
	// them through the local pool, and streams records back. All
	// artifacts (trace, metrics, manifest, journal) live with the
	// coordinator, so the worker path skips the wiring below entirely.
	if *join != "" {
		return joinFabric(ctx, *join, *callTimeout, cache, opts, stdout, stderr)
	}

	// Observability wiring: one registry and trace log shared by every
	// sweep of the invocation. The cache is disabled when tracing or
	// collecting metrics — a cache hit skips the simulation, which would
	// make the emitted series depend on job duplication.
	if *metricsOut != "" || *manifestOut != "" || *pprofAddr != "" || *traceOut != "" {
		opts.Run.Telemetry = telemetry.NewRegistry()
		opts.Run.Cache = nil
		cache = nil
	}
	if *traceOut != "" {
		opts.Run.TraceLog = &telemetry.TraceLog{}
		opts.Run.TraceSteps = *traceSteps
	}
	if *manifestOut != "" {
		opts.Run.Manifest = telemetry.NewManifest("evbench")
	}
	if *pprofAddr != "" {
		dbg, err := telemetry.StartDebugServer(*pprofAddr, opts.Run.Telemetry)
		if err != nil {
			fmt.Fprintf(stderr, "evbench: pprof listener: %v\n", err)
			return 1
		}
		defer dbg.Close()
		fmt.Fprintf(stdout, "[debug server on http://%s — /debug/pprof, /debug/vars, /metrics]\n\n", dbg.Addr)
	}

	// Experiment failures are aggregated, not fatal: every selected
	// experiment gets to run (and journal its progress) before the
	// process reports the combined outcome.
	var failures []string
	run := func(name string, fn func() error) {
		if *serve != "" {
			return // serving the fabric replaces the experiment loop
		}
		if *exp != "all" && *exp != name {
			return
		}
		if ctx.Err() != nil {
			return // draining: don't start new experiments
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(stderr, "evbench: %s: %v\n", name, err)
			failures = append(failures, name)
			return
		}
		fmt.Fprintf(stdout, "[%s completed in %s]\n\n", name, time.Since(start).Truncate(time.Millisecond))
	}

	run("fig1", func() error {
		rows, err := experiments.Fig1(experiments.Fig1Config{})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderFig1(rows))
		return nil
	})

	run("fig5", func() error {
		traces, err := experiments.Fig5(opts)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderFig5(traces))
		return nil
	})

	run("fig6", func() error {
		pts, err := experiments.Fig6(opts)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderFig6(pts))
		return nil
	})

	if (*exp == "all" || *exp == "fig7" || *exp == "fig8") && *serve == "" && ctx.Err() == nil {
		start := time.Now()
		cycles, err := experiments.RunCycles(opts)
		if err != nil {
			fmt.Fprintf(stderr, "evbench: cycles: %v\n", err)
			failures = append(failures, "fig7/fig8")
		} else {
			if *exp != "fig8" {
				fmt.Fprint(stdout, experiments.RenderFig7(experiments.Fig7(cycles)))
				fmt.Fprintln(stdout)
			}
			if *exp != "fig7" {
				fmt.Fprint(stdout, experiments.RenderFig8(experiments.Fig8(cycles)))
			}
			// Driving-range view of the same runs (the paper's second
			// objective, reported via [12]'s estimation approach).
			rows, err := experiments.RangeComparison(cycles, 21.3)
			if err != nil {
				fmt.Fprintf(stderr, "evbench: range: %v\n", err)
				failures = append(failures, "range")
			} else {
				fmt.Fprintln(stdout)
				fmt.Fprint(stdout, experiments.RenderRange(rows))
			}
			fmt.Fprintf(stdout, "[fig7/fig8 completed in %s]\n\n", time.Since(start).Truncate(time.Millisecond))
		}
	}

	run("table1", func() error {
		rows, err := experiments.Table1(opts, nil)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderTable1(rows))
		return nil
	})

	// Ablations are opt-in (not part of "all"): four sweeps of full MPC
	// runs take several extra minutes.
	runExplicit := func(name string, fn func() error) {
		if *exp != name {
			return
		}
		run(name, fn)
	}
	runExplicit("ablate", func() error {
		for _, a := range []struct {
			title string
			fn    func() ([]experiments.AblationRow, error)
		}{
			{"MPC horizon length", func() ([]experiments.AblationRow, error) { return experiments.AblateHorizon(opts, nil) }},
			{"SoC-deviation weight w2", func() ([]experiments.AblationRow, error) { return experiments.AblateSoCDevWeight(opts, nil) }},
			{"SQP budget K of seeded decides; carried decides take min(K, 2)", func() ([]experiments.AblationRow, error) { return experiments.AblateSQPBudget(opts, nil) }},
			{"control period", func() ([]experiments.AblationRow, error) { return experiments.AblateControlPeriod(opts, nil) }},
		} {
			rows, err := a.fn()
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderAblation(a.title, rows))
			fmt.Fprintln(stdout)
		}
		return nil
	})

	runExplicit("faults", func() error {
		var names []string
		if *scenarios != "" {
			names = strings.Split(*scenarios, ",")
		}
		rows, err := experiments.FaultSweep(opts, names)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderFaultSweep(rows))
		return nil
	})

	// The cold-climate integrated thermal sweep: soaked pack, heat-pump
	// HVAC, co-scheduling MPC vs the cabin-only controllers.
	runExplicit("cold", func() error {
		sw, err := experiments.RunCold(opts)
		if err != nil {
			return err
		}
		out, err := renderCold(sw)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
		return sweepFailures(sw)
	})

	// The single-process form of the distributable sweep — the baseline
	// the fabric's output is byte-compared against (and the overhead
	// reference for EXPERIMENTS.md).
	runExplicit("dist", func() error {
		sw, err := experiments.RunDist(opts)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderDist(sw))
		return sweepFailures(sw)
	})

	runExplicit("fleet", func() error {
		summary, err := experiments.RunFleet(opts, experiments.FleetConfig{Trips: 10})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.RenderFleet(summary))
		return nil
	})

	if *serve != "" && ctx.Err() == nil {
		// -serve coordinates the selected distributable sweep; "dist" is
		// the default workload, -exp cold serves the cold-climate grid.
		name := "dist"
		if *exp == "cold" {
			name = "cold"
		}
		start := time.Now()
		if err := serveFabric(ctx, name, *serve, *unitSize, *leaseTTL, *spill, cache, opts, stdout); err != nil && ctx.Err() == nil {
			fmt.Fprintf(stderr, "evbench: %s: %v\n", name, err)
			failures = append(failures, name)
		} else if err == nil {
			fmt.Fprintf(stdout, "[%s completed in %s]\n\n", name, time.Since(start).Truncate(time.Millisecond))
		}
	}

	if cache != nil {
		if hits, misses, entries := cache.Stats(); hits > 0 {
			fmt.Fprintf(stdout, "[sweep cache: %d hits, %d misses, %d scenarios — %s of simulation re-use]\n",
				hits, misses, entries, cache.Saved().Truncate(time.Millisecond))
		}
	}

	// The observability artifacts are written even on failure or drain —
	// a partial manifest with resume lineage is exactly what a post-
	// mortem needs.
	code := 0
	if *traceOut != "" {
		if err := writeFileWith(*traceOut, func(f *os.File) error {
			return opts.Run.TraceLog.WriteJSONL(f, false)
		}); err != nil {
			fmt.Fprintf(stderr, "evbench: trace: %v\n", err)
			code = 1
		} else {
			fmt.Fprintf(stdout, "[step trace: %d spans written to %s]\n", opts.Run.TraceLog.Len(), *traceOut)
		}
	}
	if *metricsOut != "" {
		// The file dump is the deterministic subset — byte-identical at
		// any worker count. Wall-clock series stay on the live /metrics
		// endpoint and in JobResult.Elapsed.
		if err := writeFileWith(*metricsOut, func(f *os.File) error {
			return opts.Run.Telemetry.Snapshot(telemetry.DeterministicFilter).WritePrometheus(f)
		}); err != nil {
			fmt.Fprintf(stderr, "evbench: metrics: %v\n", err)
			code = 1
		} else {
			fmt.Fprintf(stdout, "[metrics written to %s]\n", *metricsOut)
		}
	}
	if *manifestOut != "" {
		opts.Run.Manifest.Finalize(telemetry.GitDescribe(""), opts.Run.Telemetry.Snapshot(telemetry.DeterministicFilter))
		if err := opts.Run.Manifest.WriteFile(*manifestOut); err != nil {
			fmt.Fprintf(stderr, "evbench: manifest: %v\n", err)
			code = 1
		} else {
			fmt.Fprintf(stdout, "[run manifest written to %s]\n", *manifestOut)
		}
	}

	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "evbench: interrupted; journal and checkpoints flushed")
		if *journalDir != "" && *resume {
			fmt.Fprintln(stderr, "evbench: re-run the same command to continue")
		} else if *journalDir != "" {
			fmt.Fprintf(stderr, "evbench: resume with: evbench %s -resume\n", strings.Join(args, " "))
		} else {
			fmt.Fprintln(stderr, "evbench: re-run with -journal DIR to make sweeps resumable")
		}
		return 3
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "evbench: %d experiment(s) failed: %s\n", len(failures), strings.Join(failures, ", "))
		return 1
	}
	return code
}

// renderCold formats the cold-climate sweep's table followed by the
// depot-preconditioning table, the wall-powered alternative the cold
// study compares in-drive co-scheduling against.
func renderCold(sw *runner.Sweep) (string, error) {
	rows, err := experiments.ColdRows(sw)
	if err != nil {
		return "", err
	}
	depot, err := experiments.DepotRows()
	if err != nil {
		return "", err
	}
	return experiments.RenderCold(rows) + "\n" + experiments.RenderDepot(depot), nil
}

// serveFabric coordinates a named distributable sweep over the fabric:
// shard, lease to joining workers, journal completions, and stitch the
// byte-identical sweep once every unit lands. Shares the caller's
// observability and journal wiring, so -trace/-metrics/-manifest/
// -journal/-resume mean the same thing they do single-process. Workers
// rebuild the spec by name from the shared FabricSpecs registry.
func serveFabric(ctx context.Context, name, addr string, unitSize int, leaseTTL time.Duration, spill bool, cache *runner.Cache, opts experiments.Options, stdout io.Writer) error {
	var params map[string]string
	var render func(*runner.Sweep) (string, error)
	switch name {
	case "cold":
		params = experiments.ColdParams(opts)
		render = renderCold
	default:
		params = experiments.DistParams(opts)
		render = func(sw *runner.Sweep) (string, error) {
			return experiments.RenderDist(sw), nil
		}
	}
	spec, err := experiments.FabricSpecs().Build(name, params)
	if err != nil {
		return err
	}
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:       spec,
		SpecName:   name,
		Params:     params,
		Label:      name,
		UnitSize:   unitSize,
		LeaseTTL:   leaseTTL,
		Spill:      spill,
		Journal:    opts.Run.Journal,
		Telemetry:  opts.Run.Telemetry,
		TraceLog:   opts.Run.TraceLog,
		TraceSteps: opts.Run.TraceSteps,
		Manifest:   opts.Run.Manifest,
		Cache:      cache,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	if err := coord.Serve(addr); err != nil {
		return err
	}
	p := coord.Snapshot()
	fmt.Fprintf(stdout, "[coordinating %d jobs in %d units on %s — workers join with: evbench -join http://%s]\n",
		p.Jobs, p.Units, coord.Addr, coord.Addr)
	if n := coord.Resumed(); n > 0 {
		fmt.Fprintf(stdout, "[resumed: %d job(s) replayed from the journal]\n", n)
	}
	if err := coord.Wait(ctx); err != nil {
		return err // interrupted: journal is flushed, -resume continues
	}
	sw, err := coord.Stitch()
	if err != nil {
		return err
	}
	// Let every worker hear the Done reply before the listener goes away,
	// so they all exit promptly instead of retrying a dead port.
	coord.Drain(5 * time.Second)
	out, err := render(sw)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, out)
	return sweepFailures(sw)
}

// joinFabric runs the worker side of the fabric until the coordinator
// reports the sweep done, returning an evbench exit code.
func joinFabric(ctx context.Context, url string, callTimeout time.Duration, cache *runner.Cache, opts experiments.Options, stdout, stderr io.Writer) int {
	w := fabric.NewWorker(fabric.WorkerConfig{
		URL:         url,
		Specs:       experiments.FabricSpecs(),
		Workers:     opts.Run.Workers,
		JobTimeout:  opts.Run.JobTimeout,
		Retry:       opts.Run.Retry,
		CallTimeout: callTimeout,
		Cache:       cache,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "evbench: worker: "+format+"\n", args...)
		},
	})
	done, err := w.Run(ctx)
	switch {
	case err != nil && ctx.Err() != nil:
		fmt.Fprintln(stderr, "evbench: worker interrupted; the coordinator reclaims its lease")
		return 3
	case err != nil:
		fmt.Fprintf(stderr, "evbench: worker: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "[worker done: %d job(s) completed here]\n", done)
	return 0
}

// sweepFailures folds a stitched sweep's per-job errors into one error.
func sweepFailures(sw *runner.Sweep) error {
	failed := 0
	for i := range sw.Jobs {
		if sw.Jobs[i].Err != nil {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, len(sw.Jobs))
	}
	return nil
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
