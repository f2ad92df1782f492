package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
)

// slowController delegates to an inner controller but sleeps per Decide,
// simulating a hung or runaway job without perturbing the trajectory.
type slowController struct {
	inner control.Controller
	delay time.Duration
}

func (c *slowController) Name() string { return c.inner.Name() }
func (c *slowController) Reset()       { c.inner.Reset() }
func (c *slowController) Decide(sc control.StepContext) cabin.Inputs {
	time.Sleep(c.delay)
	return c.inner.Decide(sc)
}
func (c *slowController) StateSnapshot() (json.RawMessage, error) {
	return c.inner.(control.Snapshotter).StateSnapshot()
}
func (c *slowController) RestoreState(b json.RawMessage) error {
	return c.inner.(control.Snapshotter).RestoreState(b)
}

func newOnOff() (control.Controller, error) {
	m, err := cabin.New(cabin.Default())
	if err != nil {
		return nil, err
	}
	return control.NewOnOff(m), nil
}

// oneJobSpec is a single-cycle, single-env scenario under one controller.
func oneJobSpec(ctrl ControllerSpec) Spec {
	return Spec{
		Controllers: []ControllerSpec{ctrl},
		Cycles:      []CycleSpec{{Name: "ECE15"}},
		Envs:        []Env{{AmbientC: 35, SolarW: 400}},
		MaxProfileS: 150,
		BaseSeed:    7,
	}
}

// TestWatchdogTimeoutRetries is the acceptance scenario: a hung job is
// killed by the per-job watchdog and retried on its own controller, and
// the retry finishes — without stalling the pool (a fast sibling job
// completes on its first attempt meanwhile).
func TestWatchdogTimeoutRetries(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	slow := ControllerSpec{
		Label:     "Slow",
		ControlDt: 1,
		New: func() (control.Controller, error) {
			inner, err := newOnOff()
			if err != nil {
				return nil, err
			}
			if !armed.CompareAndSwap(true, false) {
				return inner, nil
			}
			return &slowController{inner: inner, delay: 20 * time.Millisecond}, nil
		},
	}
	spec := oneJobSpec(slow)
	spec.Controllers = append(spec.Controllers, FuzzySpec(1)) // fast sibling

	reg := telemetry.NewRegistry()
	sw, err := Run(context.Background(), spec, Options{
		Workers:    2,
		Telemetry:  reg,
		JobTimeout: 100 * time.Millisecond,
		Retry:      RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	jr := &sw.Jobs[0]
	if jr.Err != nil {
		t.Fatalf("retried job failed: %v (attempts %d)", jr.Err, jr.Attempts)
	}
	if jr.Attempts != 2 || len(jr.AttemptErrs) != 1 {
		t.Fatalf("attempts %d, attempt errors %v", jr.Attempts, jr.AttemptErrs)
	}
	if !errors.Is(jr.AttemptErrs[0], context.DeadlineExceeded) {
		t.Errorf("first attempt error %v, want deadline exceeded", jr.AttemptErrs[0])
	}
	sibling := &sw.Jobs[1]
	if sibling.Err != nil || sibling.Attempts != 1 {
		t.Errorf("sibling job: err %v, attempts %d — pool stalled?", sibling.Err, sibling.Attempts)
	}

	// The retried result matches a plain run of the same controller on
	// the same scenario (job 0 derives the same seed either way).
	ref, err := Run(context.Background(), oneJobSpec(OnOffSpec(1)), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "retried vs plain run", jr.Result, ref.Jobs[0].Result)

	// Watchdog and retry bookkeeping landed on the resume_* counters.
	for _, name := range []string{"resume_retries_total", "resume_watchdog_timeouts_total"} {
		if v := counterValue(t, reg, name); v != 1 {
			t.Errorf("%s = %v, want 1", name, v)
		}
	}
}

// counterValue finds a counter total in a registry snapshot.
func counterValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot(nil) {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("counter %q not registered", name)
	return 0
}

func TestRetryOnPanicThenSuccess(t *testing.T) {
	var calls atomic.Int32
	flaky := ControllerSpec{
		Label:     "Flaky",
		ControlDt: 1,
		New: func() (control.Controller, error) {
			if calls.Add(1) == 1 {
				panic("first attempt dies")
			}
			return newOnOff()
		},
	}
	sw, err := Run(context.Background(), oneJobSpec(flaky), Options{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	jr := &sw.Jobs[0]
	if jr.Err != nil {
		t.Fatalf("retried job failed: %v", jr.Err)
	}
	if jr.Attempts != 2 || len(jr.AttemptErrs) != 1 || !errors.Is(jr.AttemptErrs[0], ErrJobPanicked) {
		t.Errorf("attempts %d, attempt errors %v", jr.Attempts, jr.AttemptErrs)
	}
}

// panicAtController panics at its at-th Decide while armed is set,
// clearing it, so exactly one attempt of a retried job dies mid-run
// after emitting part of its step metrics.
type panicAtController struct {
	inner control.Controller
	armed *atomic.Bool
	at, n int
}

func (c *panicAtController) Name() string { return c.inner.Name() }
func (c *panicAtController) Reset()       { c.inner.Reset() }
func (c *panicAtController) Decide(sc control.StepContext) cabin.Inputs {
	c.n++
	if c.n == c.at && c.armed.CompareAndSwap(true, false) {
		panic("diverged mid-run")
	}
	return c.inner.Decide(sc)
}

// TestRetryMetricsCountFinalAttemptOnly pins that a retried job
// contributes only its final attempt to the sweep's metrics and trace:
// an On/Off job that panics at decide 60 and succeeds on retry must
// match a clean run, not add the dead attempt's 59 steps on top.
func TestRetryMetricsCountFinalAttemptOnly(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	flaky := OnOffSpec(1)
	flaky.New = func() (control.Controller, error) {
		inner, err := newOnOff()
		if err != nil {
			return nil, err
		}
		return &panicAtController{inner: inner, armed: &armed, at: 60}, nil
	}
	reg := telemetry.NewRegistry()
	tl := &telemetry.TraceLog{}
	sw, err := Run(context.Background(), oneJobSpec(flaky), Options{
		Workers: 1, Telemetry: reg, TraceLog: tl,
		Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if jr := &sw.Jobs[0]; jr.Err != nil || jr.Attempts != 2 {
		t.Fatalf("retried job: err %v, attempts %d", jr.Err, jr.Attempts)
	}

	refReg := telemetry.NewRegistry()
	refTl := &telemetry.TraceLog{}
	ref, err := Run(context.Background(), oneJobSpec(OnOffSpec(1)),
		Options{Workers: 1, Telemetry: refReg, TraceLog: refTl})
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "retried vs clean", sw.Jobs[0].Result, ref.Jobs[0].Result)
	if got, want := deterministicJSON(t, reg), deterministicJSON(t, refReg); !bytes.Equal(got, want) {
		t.Errorf("retried job's metrics differ from a clean run:\n%s\nvs\n%s", got, want)
	}
	if got, want := traceJSONL(t, tl), traceJSONL(t, refTl); !bytes.Equal(got, want) {
		t.Error("retried job's trace differs from a clean run")
	}
}

func TestRetryExhaustionAndNonRetryable(t *testing.T) {
	dies := ControllerSpec{
		Label:     "Dies",
		ControlDt: 1,
		New:       func() (control.Controller, error) { panic("always") },
	}
	sw, err := Run(context.Background(), oneJobSpec(dies), Options{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	jr := &sw.Jobs[0]
	if jr.Err == nil || !errors.Is(jr.Err, ErrJobPanicked) {
		t.Fatalf("err = %v, want panic error", jr.Err)
	}
	if jr.Attempts != 3 || len(jr.AttemptErrs) != 2 {
		t.Errorf("attempts %d, attempt errors %d — retries not exhausted", jr.Attempts, len(jr.AttemptErrs))
	}

	// A deterministic failure (constructor error) is not retryable:
	// re-running the same broken scenario can only waste the budget.
	broken := ControllerSpec{
		Label:     "Broken",
		ControlDt: 1,
		New:       func() (control.Controller, error) { return nil, errors.New("bad config") },
	}
	sw, err = Run(context.Background(), oneJobSpec(broken), Options{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if jr := &sw.Jobs[0]; jr.Err == nil || jr.Attempts != 1 || len(jr.AttemptErrs) != 0 {
		t.Errorf("non-retryable failure: err %v, attempts %d, attempt errors %d",
			jr.Err, jr.Attempts, len(jr.AttemptErrs))
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 5 * time.Second}
	for attempt := 1; attempt <= 8; attempt++ {
		d := p.Delay(42, attempt)
		if d != p.Delay(42, attempt) {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
		bound := p.BaseBackoff << (attempt - 1)
		if bound > p.MaxBackoff || bound <= 0 {
			bound = p.MaxBackoff
		}
		if d < bound/2 || d > bound {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, bound/2, bound)
		}
	}
	if p.Delay(1, 1) == p.Delay(2, 1) &&
		p.Delay(1, 2) == p.Delay(2, 2) &&
		p.Delay(1, 3) == p.Delay(2, 3) {
		t.Error("jitter ignores the seed across three attempts")
	}
}

// cancelAtController cancels a context at its N-th Decide call — a
// deterministic way to interrupt a sweep mid-job. It impersonates the
// inner controller's name so checkpoints written under it resume cleanly.
type cancelAtController struct {
	inner  control.Controller
	cancel context.CancelFunc
	at     int
	n      int
}

func (c *cancelAtController) Name() string { return c.inner.Name() }
func (c *cancelAtController) Reset()       { c.inner.Reset() }
func (c *cancelAtController) Decide(sc control.StepContext) cabin.Inputs {
	c.n++
	if c.cancel != nil && c.n == c.at {
		c.cancel()
	}
	return c.inner.Decide(sc)
}
func (c *cancelAtController) StateSnapshot() (json.RawMessage, error) {
	return c.inner.(control.Snapshotter).StateSnapshot()
}
func (c *cancelAtController) RestoreState(b json.RawMessage) error {
	return c.inner.(control.Snapshotter).RestoreState(b)
}

// TestMidJobCheckpointResume is the mid-cycle acceptance pin: a job
// drained partway through leaves a checkpoint; the resumed sweep
// continues it mid-cycle and the final result, trace, and metrics are
// bit-identical to an uninterrupted run. Metric equality doubly proves
// the checkpoint was used — restarting from step 0 would double-count
// the pre-drain steps merged from the checkpoint.
func TestMidJobCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := ControllerSpec{
		Label:     "On/Off",
		ControlDt: 1,
		New: func() (control.Controller, error) {
			inner, err := newOnOff()
			if err != nil {
				return nil, err
			}
			return &cancelAtController{inner: inner, cancel: cancel, at: 80}, nil
		},
	}
	spec := oneJobSpec(interrupted)
	jcfg := &JournalConfig{Dir: dir, CheckpointEvery: 25, Git: "test-build"}
	reg1 := telemetry.NewRegistry()
	first, err := Run(ctx, spec, Options{
		Workers: 1, Telemetry: reg1, TraceLog: &telemetry.TraceLog{}, Journal: jcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Jobs[0].Err == nil {
		t.Fatal("drained job unexpectedly completed")
	}

	// The graceful drain flushed a mid-cycle checkpoint.
	jobs, err := Expand(oneJobSpec(OnOffSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(dir, fmt.Sprintf("ckpt-0-%s.json", telemetry.FormatFingerprint(jobs[0].Fingerprint())))
	data, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatalf("no checkpoint after drain: %v", err)
	}
	var jc jobCheckpoint
	if err := json.Unmarshal(data, &jc); err != nil {
		t.Fatal(err)
	}
	if jc.Checkpoint == nil || jc.Checkpoint.Step < 25 {
		t.Fatalf("checkpoint step %v, want a mid-cycle state", jc.Checkpoint)
	}
	t.Logf("drained at step %d of 150", jc.Checkpoint.Step)

	// Resume under the plain controller (same label, same fingerprint).
	reg2 := telemetry.NewRegistry()
	tl2 := &telemetry.TraceLog{}
	sw, err := Run(context.Background(), oneJobSpec(OnOffSpec(1)), Options{
		Workers: 1, Telemetry: reg2, TraceLog: tl2,
		Journal: &JournalConfig{Dir: dir, Resume: true, CheckpointEvery: 25, Git: "test-build"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Jobs[0].Err != nil {
		t.Fatal(sw.Jobs[0].Err)
	}
	if sw.Jobs[0].Replayed {
		t.Error("drained job must re-run from its checkpoint, not replay")
	}

	refReg := telemetry.NewRegistry()
	refTl := &telemetry.TraceLog{}
	ref, err := Run(context.Background(), oneJobSpec(OnOffSpec(1)),
		Options{Workers: 1, Telemetry: refReg, TraceLog: refTl})
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "checkpoint-resumed", sw.Jobs[0].Result, ref.Jobs[0].Result)
	if got, want := deterministicJSON(t, reg2), deterministicJSON(t, refReg); !bytes.Equal(got, want) {
		t.Errorf("resumed metrics differ from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if got, want := traceJSONL(t, tl2), traceJSONL(t, refTl); !bytes.Equal(got, want) {
		t.Error("resumed trace differs from uninterrupted run")
	}
	if _, err := os.Stat(ckPath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint not removed after success: %v", err)
	}
}

// TestCheckpointIgnoredOnFingerprintMismatch: a job checkpoint resumes
// only the job whose fingerprint wrote it, and a corrupt file degrades
// to a cold start.
func TestCheckpointIgnoredOnFingerprintMismatch(t *testing.T) {
	jobs, err := Expand(oneJobSpec(OnOffSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	job := &jobs[0]
	path := filepath.Join(t.TempDir(), "ck.json")
	ck := &sim.Checkpoint{Version: sim.CheckpointVersion, Controller: "On/Off", Step: 3}
	if err := writeJobCheckpoint(path, job.Fingerprint(), ck, nil, nil); err != nil {
		t.Fatal(err)
	}
	got, err := readJobCheckpoint(path, job.Fingerprint())
	if err != nil || got == nil || got.Checkpoint.Step != 3 {
		t.Fatalf("round-trip: %+v, %v", got, err)
	}
	// A different job (a target that moves its results, so a different
	// fingerprint) must not see it.
	other := *job
	other.Config.TargetC++
	if got, err := readJobCheckpoint(path, other.Fingerprint()); err != nil || got != nil {
		t.Errorf("foreign checkpoint accepted: %+v, %v", got, err)
	}
	// Corruption degrades to a cold start, never an error.
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := readJobCheckpoint(path, job.Fingerprint()); err != nil || got != nil {
		t.Errorf("corrupt checkpoint: %+v, %v", got, err)
	}
}

func TestCacheDiskPersistence(t *testing.T) {
	cache := NewCache()
	first, err := Run(context.Background(), quickSpec(), Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.JobErrors(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := cache.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	loaded := NewCache()
	if err := loaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	sw, err := Run(context.Background(), quickSpec(), Options{Workers: 2, Cache: loaded})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sw.Jobs {
		if !sw.Jobs[i].Cached {
			t.Errorf("job %d missed the persisted cache", i)
		}
		identicalResults(t, fmt.Sprintf("job %d", i), sw.Jobs[i].Result, first.Jobs[i].Result)
	}

	// Corruption invalidates silently: a cache is an accelerator, not a
	// source of truth.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cold := NewCache()
	if err := cold.LoadFile(path); err != nil {
		t.Fatalf("corrupt cache file: %v, want silent invalidation", err)
	}
	if _, _, entries := cold.Stats(); entries != 0 {
		t.Errorf("corrupt cache loaded %d entries", entries)
	}

	// A future schema version is ignored the same way.
	vdata, _ := json.Marshal(map[string]any{"version": 99, "entries": map[string]any{}})
	if err := os.WriteFile(path, vdata, 0o644); err != nil {
		t.Fatal(err)
	}
	versioned := NewCache()
	if err := versioned.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, _, entries := versioned.Stats(); entries != 0 {
		t.Errorf("future-version cache loaded %d entries", entries)
	}

	// Missing file is a clean cold start.
	if err := NewCache().LoadFile(filepath.Join(t.TempDir(), "missing.json")); err != nil {
		t.Errorf("missing cache file: %v", err)
	}
}

// TestWriteFileAtomicReplaces: WriteFileAtomic creates the file, then
// replaces its contents whole, and leaves no temp file beside it.
func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, want := range []string{"first, the longer contents", "second"} {
		if err := WriteFileAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("contents %q, want %q", got, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.json" {
		t.Fatalf("directory holds %v, want only state.json", entries)
	}
}
