package runner

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"evclimate/internal/control"
	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
)

// Options tunes sweep execution.
type Options struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// Cache, when non-nil, skips jobs whose scenario fingerprint already
	// holds a result (opt-in; see Cache).
	Cache *Cache
	// Telemetry, when non-nil, is the sweep's shared metric registry:
	// each job runs under a sink labeled by cycle, controller, and fault
	// scenario over a job-private registry, which also counts the job's
	// outcome and duration and merges into this one when the job
	// finishes — so a retried job contributes only its final attempt.
	// Merges commute, so the aggregated deterministic series are
	// worker-count-independent. Note that cache hits skip the simulation
	// and therefore emit no per-step metrics.
	Telemetry *telemetry.Registry
	// TraceLog, when non-nil, collects every job's step spans, stitched
	// in expansion order after all jobs finish — deterministic at any
	// worker count. It works with or without a Telemetry registry.
	TraceLog *telemetry.TraceLog
	// TraceSteps caps each job's step-trace ring when TraceLog is set
	// (0 = telemetry.DefaultTraceCap).
	TraceSteps int
	// Manifest, when non-nil, receives one RunInfo per Run call: the
	// sweep label, base seed, and every job's seed and fingerprint.
	Manifest *telemetry.Manifest
	// ManifestLabel names the sweep in the manifest.
	ManifestLabel string
	// Journal, when non-nil, enables the crash-safe job journal (and,
	// with CheckpointEvery, mid-job state checkpoints): each completed
	// job is appended to an fsync'd JSONL log, and a re-run with Resume
	// set replays finished jobs instead of re-simulating them. The
	// journal refuses to resume a sweep whose fingerprint or code
	// version changed.
	Journal *JournalConfig
	// OnRecord, when non-nil, receives each completed job's journal-form
	// record — exactly what journal mode appends — whether or not a disk
	// journal is configured. Every job runs with a job-private registry,
	// so each record carries the job's complete metric contribution
	// (requires Options.Telemetry). The distributed fabric's
	// workers stream these records back to their coordinator. Calls come
	// from worker goroutines; the callback must be concurrency-safe.
	OnRecord func(rec *JournalRecord)
	// JobTimeout, when positive, is the per-job watchdog: a wall-clock
	// deadline threaded into the simulation and checked every control
	// step, so a hung or runaway job aborts without stalling the pool.
	JobTimeout time.Duration
	// Retry re-runs jobs that panic or exceed the watchdog on their own
	// controller, with exponential backoff.
	Retry RetryPolicy
	// BatchSize groups eligible jobs into lockstep SoA batches
	// (sim.BatchRunner): jobs sharing a batchable controller family and
	// a time grid are simulated N vehicles at a time, which is where the
	// sweep's throughput comes from on few-core machines. Every other
	// job runs as a 1-lane unit of the same step loop. 0 uses
	// DefaultBatchSize; negative disables grouping. Grouping follows
	// expansion order and is independent of Workers, so sweep outputs
	// stay worker-count-deterministic; each lane's result is
	// bit-identical to the job's 1-lane run. Journal, record-streaming,
	// retry, and watchdog sweeps group the same way: each lane keeps its
	// own journal record, checkpoint, and metrics, and a multi-lane unit
	// that fails splits into 1-lane units, where Retry and JobTimeout
	// apply per job (JobTimeout also bounds each multi-lane attempt).
	BatchSize int
}

// JobResult is one executed job's outcome.
type JobResult struct {
	// Job is the scenario that ran.
	Job Job
	// Result is the simulation outcome (nil on error). Cached results
	// are shared between sweeps and must be treated as read-only.
	Result *sim.Result
	// Err is the job's failure, including captured panics; other jobs
	// are unaffected.
	Err error
	// Elapsed is the job's wall-clock execution time, set on success,
	// error, and panic paths alike (0 on cache hit).
	Elapsed time.Duration
	// Saved, on a cache hit, is the wall-clock the cached result
	// originally cost — the time the hit avoided re-spending.
	Saved time.Duration
	// Cached reports that the result came from the cache.
	Cached bool
	// Instance is the controller instance that produced Result (nil on
	// cache hit), for post-run diagnostics such as solver statistics.
	Instance control.Controller
	// Attempts is the number of execution attempts the job took
	// (1 = first try; 0 only for jobs that never ran).
	Attempts int
	// AttemptErrs are the failures of earlier attempts when retry is
	// enabled; Err is the final attempt's outcome.
	AttemptErrs []error
	// Replayed reports the result came from a sweep journal instead of
	// a fresh simulation.
	Replayed bool
}

// Sweep is an executed spec: results in expansion (spec) order.
type Sweep struct {
	// Spec is the expanded specification.
	Spec Spec
	// Jobs holds one result per job, in expansion order regardless of
	// scheduling.
	Jobs []JobResult
	// Metrics is the sweep-level metric snapshot, taken from the
	// Options.Telemetry registry after every job finished (nil when the
	// sweep ran without telemetry). It includes wall-clock series; apply
	// telemetry.DeterministicFilter before comparing across runs.
	Metrics telemetry.Snapshot
}

// FirstErr returns the first failed job's error, or nil.
func (s *Sweep) FirstErr() error {
	for i := range s.Jobs {
		if err := s.Jobs[i].Err; err != nil {
			return fmt.Errorf("runner: job %d (%s on %s): %w",
				s.Jobs[i].Job.Index, s.Jobs[i].Job.Controller.Label, s.Jobs[i].Job.Cycle, err)
		}
	}
	return nil
}

// JobErrors aggregates every failed job into one error (nil when all
// succeeded), so callers surface the complete failure list instead of
// only the first casualty.
func (s *Sweep) JobErrors() error {
	var errs []error
	for i := range s.Jobs {
		if err := s.Jobs[i].Err; err != nil {
			errs = append(errs, fmt.Errorf("job %d (%s on %s): %w",
				s.Jobs[i].Job.Index, s.Jobs[i].Job.Controller.Label, s.Jobs[i].Job.Cycle, err))
		}
	}
	return errors.Join(errs...)
}

// Cells groups the results into scenario cells: one block per
// (cycle, env, target, fault) combination holding every controller's
// result, in expansion order. Controllers are the innermost dimension, so
// cells are contiguous blocks of len(Spec.Controllers).
func (s *Sweep) Cells() [][]JobResult {
	n := len(s.Spec.Controllers)
	if n == 0 {
		return nil
	}
	cells := make([][]JobResult, 0, len(s.Jobs)/n)
	for i := 0; i+n <= len(s.Jobs); i += n {
		cells = append(cells, s.Jobs[i:i+n])
	}
	return cells
}

// CellMap keys one cell's results by controller label.
func CellMap(cell []JobResult) map[string]*sim.Result {
	out := make(map[string]*sim.Result, len(cell))
	for i := range cell {
		out[cell[i].Job.Controller.Label] = cell[i].Result
	}
	return out
}

// Run expands the spec and executes it on the worker pool. The returned
// error covers spec problems only; per-job failures (including captured
// panics) are reported in JobResult.Err — check Sweep.FirstErr.
func Run(ctx context.Context, spec Spec, opts Options) (*Sweep, error) {
	jobs, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	results, fps, err := runJobs(ctx, jobs, opts)
	if err != nil {
		return nil, err
	}
	sw := &Sweep{Spec: spec, Jobs: results}
	if opts.Telemetry != nil {
		sw.Metrics = opts.Telemetry.Snapshot(nil)
	}
	if opts.Manifest != nil {
		opts.Manifest.AddRun(ManifestRunInfo(opts.ManifestLabel, spec.BaseSeed, jobs, fps))
	}
	return sw, nil
}

// ManifestRunInfo builds the manifest record of one sweep from its jobs
// and their fingerprints fps (Fingerprints): every job's seed and
// fingerprint plus a sweep fingerprint hashing the base seed and the job
// fingerprints in expansion order. The pool records it for every Run
// call; the distributed fabric's coordinator records the identical
// structure, so a fabric manifest is byte-comparable to a single-process
// one.
func ManifestRunInfo(label string, baseSeed int64, jobs []Job, fps []uint64) telemetry.RunInfo {
	ri := telemetry.RunInfo{Label: label, BaseSeed: baseSeed, Jobs: make([]telemetry.JobInfo, 0, len(jobs))}
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(baseSeed))
	h.Write(buf[:])
	for i := range jobs {
		j := &jobs[i]
		fp := fps[i]
		binary.LittleEndian.PutUint64(buf[:], fp)
		h.Write(buf[:])
		info := telemetry.JobInfo{
			Index:       j.Index,
			Cycle:       j.Cycle,
			Controller:  j.Controller.Label,
			Seed:        j.Seed,
			Fingerprint: telemetry.FormatFingerprint(fp),
		}
		if j.Fault != nil {
			info.Scenario = j.Fault.Name
		}
		ri.Jobs = append(ri.Jobs, info)
	}
	ri.Fingerprint = telemetry.FormatFingerprint(h.Sum64())
	return ri
}

// RunJobs executes an explicit job list across the worker pool and
// returns results in job order.
func RunJobs(ctx context.Context, jobs []Job, opts Options) ([]JobResult, error) {
	out, _, err := runJobs(ctx, jobs, opts)
	return out, err
}

// runJobs implements RunJobs and also returns the job fingerprints it
// hashed, once each — nil unless opts asks for anything keyed by them —
// for Run's manifest.
func runJobs(ctx context.Context, jobs []Job, opts Options) ([]JobResult, []uint64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]JobResult, len(jobs))
	ran := make([]bool, len(jobs))

	// Per-job step-trace rings, stitched into the TraceLog in expansion
	// order after the pool drains so the log is worker-count-independent.
	var traces []*telemetry.StepTrace
	if opts.TraceLog != nil {
		traces = make([]*telemetry.StepTrace, len(jobs))
	}
	pe := &poolEnv{opts: opts, jobs: jobs, traces: traces}
	// Hash each job's scenario once, and only when something keys on
	// it: the journal, the cache, the record stream or Run's manifest.
	if opts.Journal != nil || opts.Cache != nil || opts.OnRecord != nil || opts.Manifest != nil {
		pe.fps = Fingerprints(jobs)
	}
	pe.resolveCounters()

	// Journal mode: open (or resume) the write-ahead log and replay the
	// finished jobs before any worker starts. Each replayed result also
	// warms the cache, so a later sweep of the same invocation that
	// shares the cell takes it from there, as it would have in the run
	// that journaled it.
	if opts.Journal != nil {
		jnl, err := OpenJournal(opts.Journal, opts.ManifestLabel, pe.fps)
		if err != nil {
			return nil, nil, err
		}
		defer jnl.Close()
		pe.jnl = jnl
		replayed := 0
		for i := range jobs {
			rec, _ := jnl.Replayed(jobs[i].Index)
			if rec == nil || rec.Err != "" {
				continue // never journaled, or failed: re-run it
			}
			jr, err := pe.replay(i, rec)
			if err != nil {
				return nil, nil, err
			}
			if opts.Cache != nil {
				opts.Cache.Put(pe.fps[i], jr.Result, jr.Elapsed)
			}
			out[i] = jr
			ran[i] = true
			replayed++
		}
		if replayed > 0 && opts.Manifest != nil {
			opts.Manifest.AddResume(telemetry.ResumeInfo{
				Journal:          jnl.Path(),
				SweepFingerprint: jnl.Header().SweepFingerprint,
				ReplayedJobs:     replayed,
				Git:              jnl.Header().Git,
			})
		}
	}

	// Schedule the remaining jobs into units — SoA batches of jobs
	// sharing a batchable controller and a time grid, 1-lane units for
	// the rest — from the expansion order alone, so scheduling is
	// independent of the worker count.
	units := pe.planUnits(ran)

	feed := make(chan []int)
	go func() {
		defer close(feed)
		for _, u := range units {
			select {
			case feed <- u:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for unit := range feed {
				if ctx.Err() != nil {
					return
				}
				pe.runUnit(ctx, unit, out)
				for _, i := range unit {
					// A job that never started is filled with ctx.Err
					// below. Units are disjoint, so no two workers write
					// the same flag.
					ran[i] = out[i].Attempts > 0
				}
			}
		}()
	}
	wg.Wait()

	for i := range out {
		if !ran[i] {
			out[i] = JobResult{Job: jobs[i], Err: ctx.Err()}
		}
	}
	if opts.TraceLog != nil {
		for i := range traces {
			if traces[i] == nil {
				continue
			}
			spans := traces[i].Spans()
			for k := range spans {
				spans[k].Job = jobs[i].Index
			}
			opts.TraceLog.Append(spans...)
		}
	}
	return out, pe.fps, nil
}

// jobLabels are the base labels every metric of one job's sink carries.
func jobLabels(j *Job) []telemetry.Label {
	ls := []telemetry.Label{telemetry.L("cycle", j.Cycle), telemetry.L("controller", j.Controller.Label)}
	if j.Fault != nil && j.Fault.Name != "" {
		ls = append(ls, telemetry.L("scenario", j.Fault.Name))
	}
	return ls
}
