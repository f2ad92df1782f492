package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
)

// This file is the pool's per-job durability: journal replay, the
// attempt loop of a 1-lane unit (watchdog deadline, bounded retry), the
// finish step every lane of every unit goes through (outcome counters,
// journal append, record stream, metric merge, checkpoint removal), and
// mid-job checkpoint files. Sweeps without these options take the same
// path, paying only nil checks.

// poolEnv carries one RunJobs call's shared execution state into the
// workers.
type poolEnv struct {
	opts Options
	jobs []Job
	// fps are the jobs' scenario fingerprints, hashed once per RunJobs
	// (nil when no journal, cache, record stream or manifest needs them).
	fps    []uint64
	jnl    *Journal
	traces []*telemetry.StepTrace

	// Durability bookkeeping, always on the shared registry under the
	// "resume_" prefix that DeterministicFilter excludes — how often a
	// sweep was interrupted or retried must not perturb its manifest.
	telReplayed, telRecords, telCkpts *telemetry.Counter
	telRetried, telTimeouts           *telemetry.Counter
}

// jobCounters are the per-outcome instruments of the pool.
type jobCounters struct {
	ok, fail, cached *telemetry.Counter
	seconds          *telemetry.Histogram
}

// resolveJobCounters registers the pool's outcome instruments on a
// job-private registry (all four, so every job merges a complete set).
func resolveJobCounters(reg *telemetry.Registry) jobCounters {
	if reg == nil {
		return jobCounters{}
	}
	return jobCounters{
		ok:      reg.Counter("runner_jobs_total", telemetry.L("result", "ok")),
		fail:    reg.Counter("runner_jobs_total", telemetry.L("result", "error")),
		cached:  reg.Counter("runner_jobs_total", telemetry.L("result", "cached")),
		seconds: reg.Histogram("runner_job_seconds", telemetry.LatencyBuckets),
	}
}

// resolveCounters registers the durability counters on the sweep
// registry once, up front — each only when its feature is enabled, so
// sweeps that never journal or retry keep their metric snapshots
// unchanged. Job outcomes land on the job-private registries instead.
func (pe *poolEnv) resolveCounters() {
	reg := pe.opts.Telemetry
	if reg == nil {
		return
	}
	if pe.opts.Journal != nil || pe.opts.OnRecord != nil {
		pe.telReplayed = reg.Counter("resume_journal_replayed_total")
		pe.telRecords = reg.Counter("resume_journal_records_total")
		if pe.opts.Journal != nil && pe.opts.Journal.CheckpointEvery > 0 {
			pe.telCkpts = reg.Counter("resume_checkpoints_total")
		}
	}
	if pe.opts.Retry.MaxAttempts > 1 {
		pe.telRetried = reg.Counter("resume_retries_total")
	}
	if pe.opts.JobTimeout > 0 {
		pe.telTimeouts = reg.Counter("resume_watchdog_timeouts_total")
	}
}

// ReplayRecord reconstructs a finished job's result from its
// journal-form record after validating the record's fingerprint
// against the job — the shared replay path of journal resume and the
// fabric coordinator's stitch. The caller folds rec.Metrics and
// rec.Spans into its own registry and trace log.
func ReplayRecord(job *Job, rec *JournalRecord) (JobResult, error) {
	return replayRecord(job, job.Fingerprint(), rec)
}

// replayRecord is ReplayRecord given the job's fingerprint.
func replayRecord(job *Job, jobFp uint64, rec *JournalRecord) (JobResult, error) {
	fp := telemetry.FormatFingerprint(jobFp)
	if rec.Fingerprint != fp {
		return JobResult{}, fmt.Errorf("%w: record for job %d has fingerprint %s, this expansion has %s",
			ErrJournalMismatch, job.Index, rec.Fingerprint, fp)
	}
	if rec.Result == nil {
		return JobResult{}, fmt.Errorf("runner: journal record for job %d has no result", job.Index)
	}
	return JobResult{
		Job:      *job,
		Result:   rec.Result,
		Elapsed:  time.Duration(rec.ElapsedNs),
		Cached:   rec.Cached,
		Attempts: rec.Attempts,
		Replayed: true,
	}, nil
}

// replay reconstructs a finished job from its journal record: the
// result, the step-trace ring, and the metric contribution, exactly as
// the live execution produced them.
func (pe *poolEnv) replay(i int, rec *JournalRecord) (JobResult, error) {
	job := &pe.jobs[i]
	jr, err := replayRecord(job, pe.fps[i], rec)
	if err != nil {
		return JobResult{}, err
	}
	if pe.traces != nil {
		ring := telemetry.NewStepTrace(pe.opts.TraceSteps)
		for k := range rec.Spans {
			ring.Record(rec.Spans[k])
		}
		pe.traces[i] = ring
	}
	if pe.opts.Telemetry != nil {
		if err := pe.opts.Telemetry.Merge(rec.Metrics); err != nil {
			return JobResult{}, fmt.Errorf("runner: replay job %d: %w", job.Index, err)
		}
	}
	pe.telReplayed.Inc()
	return jr, nil
}

// runJob executes one job as 1-lane units under the retry policy: each
// attempt runs under the watchdog, a retryable failure (panic or
// deadline) backs off and reruns the job's own controller, and only the
// final attempt reaches finish.
func (pe *poolEnv) runJob(ctx context.Context, i int) JobResult {
	job := &pe.jobs[i]
	maxAttempts := max(pe.opts.Retry.MaxAttempts, 1)
	var ln *lane
	var attemptErrs []error
	for attempt := 1; ; attempt++ {
		ln = pe.newLane(i)
		err := pe.attempt(ctx, []*lane{ln})
		ln.jr.Attempts = attempt
		if err == nil || attempt >= maxAttempts || ctx.Err() != nil || !Retryable(err) {
			break
		}
		attemptErrs = append(attemptErrs, err)
		pe.telRetried.Inc()
		if errors.Is(err, context.DeadlineExceeded) {
			pe.telTimeouts.Inc()
		}
		if !sleepBackoff(ctx, pe.opts.Retry, job.Seed, attempt) {
			break
		}
	}
	ln.jr.AttemptErrs = attemptErrs
	return pe.finish(ctx, ln)
}

// finish books a lane's final attempt as its job's outcome: the trace
// ring, the outcome counters on the job-private registry, the journal
// record and OnRecord stream (except for a shutdown-in-progress abort,
// which resumes from its checkpoint instead of replaying a partial
// result), the merge of the job's metrics into the sweep registry, and
// removal of the job's now-needless checkpoint.
func (pe *poolEnv) finish(ctx context.Context, ln *lane) JobResult {
	jr := ln.jr
	job := &pe.jobs[ln.i]
	if pe.traces != nil {
		pe.traces[ln.i] = ln.rec
	}
	jc := resolveJobCounters(ln.priv)
	switch {
	case jr.Err != nil:
		jc.fail.Inc()
	case jr.Cached:
		jc.cached.Inc()
	default:
		jc.ok.Inc()
	}
	jc.seconds.Observe(jr.Elapsed.Seconds())
	metrics := ln.priv.Snapshot(nil)

	if (pe.jnl != nil || pe.opts.OnRecord != nil) && ctx.Err() == nil {
		jrec := &JournalRecord{
			Kind:        "job",
			Index:       job.Index,
			Fingerprint: telemetry.FormatFingerprint(pe.fps[ln.i]),
			Seed:        job.Seed,
			Attempts:    jr.Attempts,
			Cached:      jr.Cached,
			ElapsedNs:   jr.Elapsed.Nanoseconds(),
			Result:      jr.Result,
			Metrics:     metrics,
		}
		if ln.rec != nil {
			jrec.Spans = ln.rec.Spans()
		}
		if jr.Err != nil {
			jrec.Err = jr.Err.Error()
			jrec.Result = nil
		}
		if pe.jnl != nil {
			if _, err := pe.jnl.Append(jrec); err != nil && jr.Err == nil {
				jr.Err = fmt.Errorf("runner: journal append: %w", err)
			}
		}
		if pe.opts.OnRecord != nil {
			pe.opts.OnRecord(jrec)
		}
		pe.telRecords.Inc()
	}
	if err := pe.opts.Telemetry.Merge(metrics); err != nil && jr.Err == nil {
		jr.Err = fmt.Errorf("runner: telemetry merge: %w", err)
	}
	if ln.ckPath != "" && jr.Err == nil {
		os.Remove(ln.ckPath)
	}
	return jr
}

// resumeLane loads the lane's mid-job checkpoint, if it has a usable
// one, and replays the checkpoint's spans and metrics into the lane's
// fresh trace ring and registry, so a resumed run emits exactly what an
// uninterrupted one would. A checkpoint written under a different
// controller label or one whose metrics do not merge is ignored: the
// lane starts from scratch.
func (pe *poolEnv) resumeLane(ln *lane) *sim.Checkpoint {
	if ln.ckPath == "" {
		return nil
	}
	job := &pe.jobs[ln.i]
	jc, err := readJobCheckpoint(ln.ckPath, pe.fps[ln.i])
	if err != nil || jc == nil || jc.Checkpoint.Controller != job.Controller.Label {
		return nil
	}
	if err := ln.priv.Merge(jc.Metrics); err != nil {
		ln.priv = telemetry.NewRegistry()
		return nil
	}
	if ln.rec != nil {
		for k := range jc.Spans {
			ln.rec.Record(jc.Spans[k])
		}
	}
	return jc.Checkpoint
}

// jobCheckpoint is the on-disk form of one job's mid-run state: the
// simulation checkpoint plus the telemetry the job emitted up to it.
type jobCheckpoint struct {
	Fingerprint string               `json:"fingerprint"`
	Checkpoint  *sim.Checkpoint      `json:"checkpoint"`
	Spans       []telemetry.StepSpan `json:"spans,omitempty"`
	Metrics     telemetry.Snapshot   `json:"metrics,omitempty"`
}

// WriteFileAtomic replaces the file at path with data: it writes
// path+".tmp", fsyncs and closes it, then renames it over path, so a
// crash leaves either the old contents or the new ones under the real
// name, never a half-written file.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// writeJobCheckpoint persists the checkpoint of the job with
// fingerprint fp atomically (WriteFileAtomic).
func writeJobCheckpoint(path string, fp uint64, ck *sim.Checkpoint, spans []telemetry.StepSpan, metrics telemetry.Snapshot) error {
	data, err := json.Marshal(jobCheckpoint{
		Fingerprint: telemetry.FormatFingerprint(fp),
		Checkpoint:  ck,
		Spans:       spans,
		Metrics:     metrics,
	})
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// readJobCheckpoint loads the mid-run checkpoint of the job with
// fingerprint fp. A missing, unparseable (an older schema's, say), or
// mismatched file yields nil: checkpoints accelerate resumption, they
// are never required for correctness, so anything suspect means "start
// from scratch".
func readJobCheckpoint(path string, fp uint64) (*jobCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var jc jobCheckpoint
	if err := json.Unmarshal(data, &jc); err != nil {
		return nil, nil
	}
	if jc.Checkpoint == nil || jc.Fingerprint != telemetry.FormatFingerprint(fp) {
		return nil, nil
	}
	return &jc, nil
}
