package runner

import (
	"context"
	"math"
	"time"

	"evclimate/internal/control"
	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
)

// This file is the pool's multi-lane execution path: eligible jobs are
// grouped into sim.BatchRunner units and simulated N vehicles at a
// time over SoA state. A singleton unit is a 1-lane run of the same
// step loop (runOne → sim.Runner.RunWith), and lanes never interact
// (sim's lane-independence property), so every lane's result is
// bit-identical to its job's singleton run. Batching is purely a
// scheduling decision — and one made from the expansion order alone,
// keeping sweep outputs worker-count-deterministic.

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

// batchingEnabled reports whether this sweep's options allow batched
// execution at all. Journal, record streaming, retry, and watchdog
// sweeps need per-job execution control (per-job registries, per-job
// deadlines, attempt loops), so they run every job as a singleton unit.
func (pe *poolEnv) batchingEnabled() bool {
	o := &pe.opts
	return o.BatchSize >= 0 &&
		o.Journal == nil &&
		o.OnRecord == nil &&
		o.Retry.MaxAttempts <= 1 &&
		o.JobTimeout == 0
}

// batchKeyFor computes a job's batch group, probing the controller
// family once (per Label+Key) for an SoA fast path. Jobs that cannot
// batch — thermal lanes, non-batchable controllers, degenerate grids —
// report ok=false and run as singleton units.
func (pe *poolEnv) batchKeyFor(job *Job, probe map[[2]string]bool) (batchKey, bool) {
	cfg := &job.Config
	if cfg.Thermal != nil || cfg.Profile == nil {
		return batchKey{}, false
	}
	pk := [2]string{job.Controller.Label, job.Controller.Key}
	batchable, seen := probe[pk]
	if !seen {
		batchable = false
		if job.Controller.New != nil {
			if c, err := job.Controller.New(); err == nil {
				batchable = control.Batchable(c)
			}
		}
		probe[pk] = batchable
	}
	if !batchable {
		return batchKey{}, false
	}
	// Mirror sim.New's defaulting so the key matches what NewBatch will
	// validate.
	dt := cfg.ControlDt
	if dt <= 0 {
		dt = cfg.Profile.Dt
	}
	if dt <= 0 {
		return batchKey{}, false
	}
	sub := cfg.PlantSubSteps
	if sub <= 0 {
		sub = 5
	}
	steps := int(math.Ceil(cfg.Profile.Duration() / dt))
	if steps <= 0 {
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

// planUnits schedules the not-yet-run jobs into execution units:
// singleton units for ungrouped jobs, and batches of up to BatchSize lanes
// for groups sharing a batchKey. Grouping walks the expansion order and
// flushes leftover partial groups in first-seen key order, so the plan
// is a pure function of the job list — independent of workers and of
// wall-clock.
func (pe *poolEnv) planUnits(ran []bool) [][]int {
	size := pe.opts.BatchSize
	if size == 0 {
		size = DefaultBatchSize
	}
	var units [][]int
	if size <= 1 || !pe.batchingEnabled() {
		for i := range pe.jobs {
			if !ran[i] {
				units = append(units, []int{i})
			}
		}
		return units
	}
	probe := make(map[[2]string]bool)
	groups := make(map[batchKey][]int)
	var order []batchKey
	for i := range pe.jobs {
		if ran[i] {
			continue
		}
		key, ok := pe.batchKeyFor(&pe.jobs[i], probe)
		if !ok {
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

// runBatch executes one multi-job unit, writing each lane's JobResult
// into out. Cache hits leave the batch lane by lane; anything that
// keeps the batch from running as one — a lane failing construction, a
// panicking controller, an integration error — falls the surviving
// lanes back to singleton runOne units, which attribute errors per
// job. Lanes left untouched by a context abort stay zero for the
// pool's final ctx.Err fill.
func (pe *poolEnv) runBatch(ctx context.Context, unit []int, out []JobResult) {
	opts := &pe.opts
	live := make([]int, 0, len(unit))
	for _, i := range unit {
		job := &pe.jobs[i]
		if opts.Cache != nil {
			if res, saved, ok := opts.Cache.get(job.Fingerprint()); ok {
				out[i] = JobResult{Job: *job, Result: res, Cached: true, Saved: saved, Attempts: 1}
				pe.shared.cached.Inc()
				pe.shared.seconds.Observe(0)
				continue
			}
		}
		live = append(live, i)
	}
	switch len(live) {
	case 0:
		return
	case 1:
		out[live[0]] = pe.runOne(ctx, live[0])
		return
	}
	if results := pe.executeBatch(ctx, live); results != nil {
		for k, i := range live {
			out[i] = results[k]
		}
		return
	}
	if ctx.Err() != nil {
		return
	}
	for _, i := range live {
		if ctx.Err() != nil {
			return
		}
		out[i] = pe.runOne(ctx, i)
	}
}

// executeBatch runs the live lanes as one sim.BatchRunner invocation.
// A nil return means "retry these lanes as singleton units" — a
// multi-lane unit refuses nothing a 1-lane run would accept, so a
// fallback either reproduces the same per-lane errors with proper
// attribution or succeeds where a sibling lane poisoned the batch.
func (pe *poolEnv) executeBatch(ctx context.Context, live []int) (results []JobResult) {
	opts := &pe.opts
	defer func() {
		if recover() != nil {
			results = nil // a panicking lane re-runs alone, which captures it
		}
	}()
	start := time.Now()
	nl := len(live)
	cfgs := make([]sim.Config, nl)
	recs := make([]*telemetry.StepTrace, nl)
	for k, i := range live {
		job := &pe.jobs[i]
		cfg := job.Config
		if opts.Telemetry != nil || pe.traces != nil {
			if pe.traces != nil {
				recs[k] = telemetry.NewStepTrace(opts.TraceSteps)
			}
			cfg.Telemetry = telemetry.NewSink(opts.Telemetry, recs[k], jobLabels(job)...)
		}
		cfgs[k] = cfg
	}
	br, err := sim.NewBatch(cfgs)
	if err != nil {
		return nil
	}
	ctrls := make([]control.Controller, nl)
	for k, i := range live {
		spec := &pe.jobs[i].Controller
		if spec.New == nil {
			return nil
		}
		c, err := spec.New()
		if err != nil {
			return nil
		}
		ctrls[k] = c
	}
	bc := control.Batch(ctrls)
	rs, err := br.RunWith(bc, sim.BatchRunOptions{Context: ctx})
	if err != nil {
		return nil
	}
	// Wall-clock is shared equally across lanes: per-lane attribution of
	// a fused loop is not observable, and these series are excluded from
	// deterministic comparisons anyway.
	share := time.Since(start) / time.Duration(nl)
	results = make([]JobResult, nl)
	for k, i := range live {
		job := &pe.jobs[i]
		if opts.Cache != nil {
			opts.Cache.put(job.Fingerprint(), rs[k], share)
		}
		pe.shared.ok.Inc()
		pe.shared.seconds.Observe(share.Seconds())
		if pe.traces != nil {
			pe.traces[i] = recs[k]
		}
		results[k] = JobResult{
			Job:      *job,
			Result:   rs[k],
			Instance: bc.Lane(k),
			Elapsed:  share,
			Attempts: 1,
		}
	}
	return results
}
