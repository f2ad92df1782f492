package runner

import (
	"context"
	"fmt"
	"time"

	"evclimate/internal/control"
	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
)

// This file is the pool's unit planning and execution. Jobs sharing a
// batchable controller family and a time grid are grouped into
// multi-lane units, every other job into a 1-lane unit, and every unit
// runs as one sim.BatchRunner attempt in which each lane keeps its own
// cache lookup, telemetry, trace ring, and mid-job checkpoint. Lanes
// never interact (sim's lane-independence property), so a lane's result
// is bit-identical to its job's 1-lane run: batching is purely a
// scheduling decision, made from the expansion order alone, which keeps
// sweep outputs worker-count-deterministic. A multi-lane attempt that
// fails splits into 1-lane units, where retry and the watchdog apply
// per job (durability.go).

// DefaultBatchSize is the lane count per batch when Options.BatchSize
// is zero. Sixteen lanes keep the SoA state well inside L1 while
// amortizing the time loop enough that wider batches stop paying.
const DefaultBatchSize = 16

// batchKey groups jobs that can share one lockstep batch: same
// controller family (same constructor) and the same time grid.
type batchKey struct {
	label, key string
	dt         float64
	sub        int
	steps      int
	forecast   int
}

// batchKeyFor computes a job's batch group from its controller family
// and time grid. Jobs that cannot share a lockstep grid — thermal lanes,
// degenerate grids — report ok=false and run as 1-lane units.
func batchKeyFor(job *Job) (batchKey, bool) {
	cfg := &job.Config
	if cfg.Thermal != nil || cfg.Profile == nil {
		return batchKey{}, false
	}
	// The grid NewBatch will validate.
	dt, sub, steps := sim.TimeGrid(cfg)
	if dt <= 0 || steps <= 0 {
		return batchKey{}, false
	}
	return batchKey{
		label:    job.Controller.Label,
		key:      job.Controller.Key,
		dt:       dt,
		sub:      sub,
		steps:    steps,
		forecast: cfg.ForecastSteps,
	}, true
}

// probeBatchable constructs one controller of a family to see whether
// it has an SoA decision kernel. A constructor that fails or panics
// marks the family unbatchable; its jobs then meet the failure in their
// own 1-lane attempts, where it is attributed and retried.
func probeBatchable(spec *ControllerSpec) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	if spec.New == nil {
		return false
	}
	c, err := spec.New()
	return err == nil && control.Batchable(c)
}

// planUnits schedules the not-yet-run jobs into execution units:
// 1-lane units for ungrouped jobs, and batches of up to BatchSize lanes
// for groups sharing a batchKey. Grouping walks the expansion order and
// flushes leftover partial groups in first-seen key order, so the plan
// is a pure function of the job list — independent of workers and of
// wall-clock. Only a key shared by two or more pending jobs gets its
// controller family probed, so a lone job never pays for an extra
// constructor call.
func (pe *poolEnv) planUnits(ran []bool) [][]int {
	size := pe.opts.BatchSize
	if size == 0 {
		size = DefaultBatchSize
	}
	keys := make([]batchKey, len(pe.jobs))
	count := make(map[batchKey]int)
	if size > 1 {
		for i := range pe.jobs {
			if key, ok := batchKeyFor(&pe.jobs[i]); ok && !ran[i] {
				keys[i] = key
				count[key]++
			}
		}
	}
	probed := make(map[[2]string]bool)
	batchable := func(spec *ControllerSpec) bool {
		pk := [2]string{spec.Label, spec.Key}
		ok, seen := probed[pk]
		if !seen {
			ok = probeBatchable(spec)
			probed[pk] = ok
		}
		return ok
	}
	var units [][]int
	groups := make(map[batchKey][]int)
	var order []batchKey
	for i := range pe.jobs {
		if ran[i] {
			continue
		}
		key := keys[i]
		if count[key] < 2 || !batchable(&pe.jobs[i].Controller) {
			units = append(units, []int{i})
			continue
		}
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
		if len(groups[key]) == size {
			units = append(units, groups[key])
			groups[key] = nil
		}
	}
	for _, k := range order {
		if g := groups[k]; len(g) > 0 {
			units = append(units, g)
		}
	}
	return units
}

// lane is one job's slot in a unit attempt: its mid-job checkpoint file
// ("" when not checkpointing), and what the attempt produced for it —
// the result, the step-trace ring, and the job-private metric registry.
type lane struct {
	i      int // index into poolEnv.jobs
	ckPath string
	jr     JobResult
	rec    *telemetry.StepTrace
	priv   *telemetry.Registry
}

// newLane makes job i's lane for one attempt.
func (pe *poolEnv) newLane(i int) *lane {
	ln := &lane{i: i}
	if pe.jnl != nil && pe.opts.Journal.CheckpointEvery > 0 {
		ln.ckPath = pe.jnl.checkpointPath(i, pe.fps[i])
	}
	return ln
}

// runUnit executes one planned unit and writes each job's final result
// into out. A multi-lane unit first runs as one attempt. If that attempt
// fails while the sweep is still live, the unit splits: every lane
// reruns as a 1-lane unit through runJob, so failures are attributed
// and retried per job, and the failed attempt leaves nothing behind but
// the lanes' checkpoints (which resume bit-exactly). Jobs left
// unstarted by a shutdown keep a zero result for the pool to fill.
func (pe *poolEnv) runUnit(ctx context.Context, unit []int, out []JobResult) {
	if len(unit) > 1 {
		lanes := make([]*lane, len(unit))
		for k, i := range unit {
			lanes[k] = pe.newLane(i)
		}
		if err := pe.attempt(ctx, lanes); err == nil || ctx.Err() != nil {
			for _, ln := range lanes {
				ln.jr.Attempts = 1
				out[ln.i] = pe.finish(ctx, ln)
			}
			return
		}
	}
	for _, i := range unit {
		if ctx.Err() != nil {
			return
		}
		out[i] = pe.runJob(ctx, i)
	}
}

// attempt runs one attempt of the given lanes as a single
// sim.BatchRunner run, capturing panics into the returned error. Each
// lane gets a fresh job-private registry (when the sweep has telemetry)
// and trace ring, so a failed attempt never leaks into the sweep's
// metrics; its own cache lookup, answered lanes leaving the run before
// it starts; and its own checkpoint file. When any simulated lane holds
// a checkpoint the run resumes from the set, which sim accepts only if
// every lane has one at the same step — anything else fails the attempt
// (and so splits a multi-lane unit). The watchdog deadline bounds the
// whole attempt. On success every lane's jr holds its result; on
// failure the simulated lanes' jr carry the error.
func (pe *poolEnv) attempt(ctx context.Context, lanes []*lane) (err error) {
	opts := &pe.opts
	start := time.Now()
	var live []*lane
	defer func() {
		if r := recover(); r != nil {
			// Only a 1-lane attempt's error reaches a job (a failed
			// multi-lane unit splits), so lane 0 names the job.
			j := &pe.jobs[lanes[0].i]
			err = fmt.Errorf("runner: job %d (%s on %s) %w: %v",
				j.Index, j.Controller.Label, j.Cycle, ErrJobPanicked, r)
		}
		if err != nil {
			for _, ln := range live {
				ln.jr.Result, ln.jr.Err, ln.jr.Elapsed = nil, err, time.Since(start)
			}
		}
	}()

	var cfgs []sim.Config
	var resume []*sim.Checkpoint
	for _, ln := range lanes {
		job := &pe.jobs[ln.i]
		ln.jr, ln.rec, ln.priv = JobResult{Job: *job}, nil, nil
		if opts.Telemetry != nil {
			ln.priv = telemetry.NewRegistry()
		}
		if pe.traces != nil {
			ln.rec = telemetry.NewStepTrace(opts.TraceSteps)
		}
		if opts.Cache != nil {
			if res, saved, ok := opts.Cache.get(pe.fps[ln.i]); ok {
				ln.jr.Result, ln.jr.Cached, ln.jr.Saved = res, true, saved
				continue
			}
		}
		live = append(live, ln)
		resume = append(resume, pe.resumeLane(ln))
		cfg := job.Config
		if ln.priv != nil || ln.rec != nil {
			cfg.Telemetry = telemetry.NewSink(ln.priv, ln.rec, jobLabels(job)...)
		}
		cfgs = append(cfgs, cfg)
	}
	if len(live) == 0 {
		return nil
	}

	br, err := sim.NewBatch(cfgs)
	if err != nil {
		return err
	}
	ctrls := make([]control.Controller, len(live))
	for k, ln := range live {
		spec := &pe.jobs[ln.i].Controller
		if spec.New == nil {
			return fmt.Errorf("runner: controller %q has no constructor", spec.Label)
		}
		if ctrls[k], err = spec.New(); err != nil {
			return err
		}
	}

	jctx := ctx
	if opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, opts.JobTimeout)
		defer cancel()
	}
	bo := sim.BatchRunOptions{Context: jctx}
	for _, ck := range resume {
		if ck != nil {
			bo.Resume = resume
			break
		}
	}
	if live[0].ckPath != "" {
		bo.CheckpointEvery = opts.Journal.CheckpointEvery
		bo.OnCheckpoint = func(k int, ck *sim.Checkpoint) error {
			ln := live[k]
			pe.telCkpts.Inc()
			var spans []telemetry.StepSpan
			if ln.rec != nil {
				spans = ln.rec.Spans()
			}
			return writeJobCheckpoint(ln.ckPath, pe.fps[ln.i], ck, spans, ln.priv.Snapshot(nil))
		}
	}
	bc := control.Batch(ctrls)
	rs, err := br.RunWith(bc, bo)
	if err != nil {
		return err
	}
	// Wall-clock is shared equally across lanes: per-lane attribution of
	// a fused loop is not observable, and these series are excluded from
	// deterministic comparisons anyway.
	share := time.Since(start) / time.Duration(len(live))
	for k, ln := range live {
		ln.jr.Result, ln.jr.Instance, ln.jr.Elapsed = rs[k], bc.Lane(k), share
		if opts.Cache != nil {
			opts.Cache.Put(pe.fps[ln.i], rs[k], share)
		}
	}
	return nil
}
