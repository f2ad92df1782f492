package runner

// Sweep-level lane independence. The sim package's property tests prove
// each batched lane bit-identical to its 1-lane run; these tests pin the
// pool's half of the contract — unit planning follows the expansion
// order alone, engages only where eligible, and a batched sweep's
// results, metrics, traces, and records are bit-identical to the
// one-lane-per-job pool at any worker count or batch size, under every
// durability option; a failing multi-lane unit splits into 1-lane units
// without charging any job an attempt.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evclimate/internal/control"
	"evclimate/internal/telemetry"
)

// batchSweepSpec is a small grid whose jobs all qualify for batching:
// two batchable controller families over two cycles sharing a truncated
// time grid, two environments, one target — 8 jobs, 4 per family.
func batchSweepSpec() Spec {
	return Spec{
		Controllers: []ControllerSpec{OnOffSpec(1), FuzzySpec(1)},
		Cycles:      []CycleSpec{{Name: "ECE15"}, {Name: "UDDS"}},
		Envs:        []Env{{AmbientC: 35, SolarW: 400}, {AmbientC: 10}},
		Targets:     []float64{24},
		MaxProfileS: 150,
		BaseSeed:    99,
	}
}

// observedSweep is a sweep plus its side outputs rendered for byte
// comparison: deterministic metrics, the stitched trace without
// wall-clock, and the journal or OnRecord records (see recordsJSON).
type observedSweep struct {
	sw                      *Sweep
	metrics, trace, records []byte
}

// runObserved runs spec with fresh telemetry and a trace log on top of
// opts. A non-nil opts.OnRecord is replaced by a collector; a journal
// (opts.Journal with an empty Dir gets a fresh directory) is read back
// after the run.
func runObserved(t *testing.T, spec Spec, opts Options) observedSweep {
	t.Helper()
	reg := telemetry.NewRegistry()
	tl := &telemetry.TraceLog{}
	opts.Telemetry, opts.TraceLog = reg, tl
	var mu sync.Mutex
	var recs []*JournalRecord
	if opts.OnRecord != nil {
		opts.OnRecord = func(rec *JournalRecord) {
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
		}
	}
	if opts.Journal != nil {
		jc := *opts.Journal
		jc.Dir = t.TempDir()
		opts.Journal = &jc
	}
	sw, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.JobErrors(); err != nil {
		t.Fatal(err)
	}
	if opts.Journal != nil {
		rep, err := ReadJournal(findJournal(t, opts.Journal.Dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range rep.Records {
			recs = append(recs, rec)
		}
	}
	if (opts.Journal != nil || opts.OnRecord != nil) && len(recs) != len(sw.Jobs) {
		t.Fatalf("%d records for %d jobs", len(recs), len(sw.Jobs))
	}
	return observedSweep{sw, deterministicJSON(t, reg), traceJSONL(t, tl), recordsJSON(t, recs)}
}

// recordsJSON renders job records in index order without their
// wall-clock parts: ElapsedNs, span latencies, and the non-deterministic
// metric series.
func recordsJSON(t *testing.T, recs []*JournalRecord) []byte {
	t.Helper()
	out := make([]JournalRecord, len(recs))
	for k, rec := range recs {
		r := *rec
		r.ElapsedNs = 0
		r.Spans = append([]telemetry.StepSpan(nil), r.Spans...)
		for i := range r.Spans {
			r.Spans[i].LatencyNs = 0
		}
		r.Metrics = nil
		for _, m := range rec.Metrics {
			if telemetry.DeterministicFilter(m.Name) {
				r.Metrics = append(r.Metrics, m)
			}
		}
		out[k] = r
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBatchSweepMatchesScalar runs the same spec through the
// one-lane-per-job pool and through batched pools at several (workers,
// batch size) points, plain and under each durability option, and
// requires bitwise-identical results job for job plus byte-identical
// deterministic metrics, stitched traces, and journal/OnRecord records.
func TestBatchSweepMatchesScalar(t *testing.T) {
	spec := batchSweepSpec()
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name           string
		workers, batch int
		opts           Options // durability options, shared with the 1-lane reference
		warm           int     // leading jobs answered from a pre-filled cache
	}{
		{"default batch, 1 worker", 1, 0, Options{}, 0},
		{"default batch, 4 workers", 4, 0, Options{}, 0},
		{"batch of 3, 4 workers", 4, 3, Options{}, 0},
		{"journal", 2, 0, Options{Journal: &JournalConfig{Git: "test-build"}}, 0},
		{"journal, warm cache", 2, 0, Options{Journal: &JournalConfig{Git: "test-build"}}, 3},
		{"record stream", 2, 0, Options{OnRecord: func(*JournalRecord) {}}, 0},
		{"retry", 2, 0, Options{Retry: RetryPolicy{MaxAttempts: 3}}, 0},
		{"watchdog", 2, 0, Options{JobTimeout: time.Minute}, 0},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			warm := func(o Options) Options {
				if v.warm > 0 {
					o.Cache = NewCache()
					if _, err := RunJobs(context.Background(), jobs[:v.warm], Options{Cache: o.Cache}); err != nil {
						t.Fatal(err)
					}
				}
				return o
			}
			ref := warm(v.opts)
			ref.Workers, ref.BatchSize = 1, -1
			base := runObserved(t, spec, ref)
			opts := warm(v.opts)
			opts.Workers, opts.BatchSize = v.workers, v.batch
			got := runObserved(t, spec, opts)
			cached := 0
			for i := range got.sw.Jobs {
				if got.sw.Jobs[i].Cached {
					cached++
				}
			}
			if cached != v.warm {
				t.Fatalf("%d cache hits, want %d", cached, v.warm)
			}

			if len(got.sw.Jobs) != len(base.sw.Jobs) {
				t.Fatalf("%d jobs, want %d", len(got.sw.Jobs), len(base.sw.Jobs))
			}
			for i := range got.sw.Jobs {
				jr, br := &got.sw.Jobs[i], &base.sw.Jobs[i]
				if jr.Job.Index != br.Job.Index || jr.Job.Seed != br.Job.Seed {
					t.Fatalf("job %d identity mismatch", i)
				}
				if !reflect.DeepEqual(jr.Result, br.Result) {
					t.Errorf("job %d (%s on %s): batched result differs from scalar",
						i, jr.Job.Controller.Label, jr.Job.Cycle)
				}
			}
			if !bytes.Equal(got.metrics, base.metrics) {
				t.Errorf("deterministic metrics differ:\n%s\nvs\n%s", got.metrics, base.metrics)
			}
			if !bytes.Equal(got.trace, base.trace) {
				t.Error("stitched trace differs")
			}
			if !bytes.Equal(got.records, base.records) {
				t.Errorf("records differ:\n%s\nvs\n%s", got.records, base.records)
			}
		})
	}
}

// TestPlanUnitsDeterministic pins the planner: units cover every pending
// job exactly once, lanes of one unit share a controller family, the
// grid above actually forms multi-lane batches, and the plan is a pure
// function of the job list.
func TestPlanUnitsDeterministic(t *testing.T) {
	jobs, err := Expand(batchSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	plan := func(opts Options) [][]int {
		pe := &poolEnv{opts: opts, jobs: jobs}
		return pe.planUnits(make([]bool, len(jobs)))
	}

	units := plan(Options{})
	seen := make(map[int]bool)
	batched := 0
	for _, u := range units {
		if len(u) == 0 {
			t.Fatal("empty unit")
		}
		label := jobs[u[0]].Controller.Label
		for _, i := range u {
			if seen[i] {
				t.Fatalf("job %d scheduled twice", i)
			}
			seen[i] = true
			if jobs[i].Controller.Label != label {
				t.Fatalf("unit mixes controller families %q and %q", label, jobs[i].Controller.Label)
			}
		}
		if len(u) > 1 {
			batched++
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("plan covers %d of %d jobs", len(seen), len(jobs))
	}
	if batched == 0 {
		t.Fatal("no multi-lane units: batching never engaged on an all-eligible grid")
	}
	if again := plan(Options{}); !reflect.DeepEqual(units, again) {
		t.Fatal("plan is not deterministic for a fixed job list")
	}

	// Only an explicit BatchSize disables grouping; the durability
	// options plan the same units as a plain sweep.
	for _, u := range plan(Options{BatchSize: -1}) {
		if len(u) != 1 {
			t.Fatalf("BatchSize -1: expected 1-lane units, got lane count %d", len(u))
		}
	}
	for _, opts := range []Options{
		{Retry: RetryPolicy{MaxAttempts: 2}},
		{JobTimeout: time.Minute},
		{OnRecord: func(*JournalRecord) {}},
		{Journal: &JournalConfig{Dir: t.TempDir()}},
	} {
		if got := plan(opts); !reflect.DeepEqual(got, units) {
			t.Fatalf("opts %+v: plan %v, want the plain sweep's %v", opts, got, units)
		}
	}
}

// TestBatchLanePanicSplitsUnit fails one lane of a multi-lane unit. Its
// constructor panics twice: in the unit's attempt, which splits the
// unit without charging any job an attempt, and in the lane's first
// 1-lane attempt, which the retry policy absorbs. The lane ends with two
// attempts, its siblings with one and results bit-identical to their
// 1-lane runs, the journal with one record per job, and the sweep's
// metrics and trace with nothing of the dead attempts.
func TestBatchLanePanicSplitsUnit(t *testing.T) {
	jobs, err := Expand(batchSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The second On/Off job: a lane of the On/Off unit, and never the
	// planner's probe (that constructs the family's first job).
	const victim = 2
	var calls atomic.Int32
	plain := jobs[victim].Controller.New
	jobs[victim].Controller.New = func() (control.Controller, error) {
		if calls.Add(1) <= 2 {
			panic("lane constructor dies")
		}
		return plain()
	}
	pe := &poolEnv{jobs: jobs}
	for _, u := range pe.planUnits(make([]bool, len(jobs))) {
		if slices.Contains(u, victim) && len(u) < 2 {
			t.Fatalf("job %d plans as a 1-lane unit; the test needs a multi-lane one", victim)
		}
	}

	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	tl := &telemetry.TraceLog{}
	out, err := RunJobs(context.Background(), jobs, Options{
		Workers: 2, Telemetry: reg, TraceLog: tl, ManifestLabel: "split",
		Journal: &JournalConfig{Dir: dir, Git: "test-build"},
		Retry:   RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	refJobs, err := Expand(batchSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	refReg := telemetry.NewRegistry()
	refTl := &telemetry.TraceLog{}
	ref, err := RunJobs(context.Background(), refJobs,
		Options{Workers: 1, BatchSize: -1, Telemetry: refReg, TraceLog: refTl})
	if err != nil {
		t.Fatal(err)
	}

	for i := range out {
		jr := &out[i]
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if i == victim {
			if jr.Attempts != 2 || len(jr.AttemptErrs) != 1 || !errors.Is(jr.AttemptErrs[0], ErrJobPanicked) {
				t.Errorf("failing lane: attempts %d, attempt errors %v", jr.Attempts, jr.AttemptErrs)
			}
		} else if jr.Attempts != 1 || len(jr.AttemptErrs) != 0 {
			t.Errorf("sibling job %d: attempts %d, attempt errors %v", i, jr.Attempts, jr.AttemptErrs)
		}
		identicalResults(t, fmt.Sprintf("job %d", i), jr.Result, ref[i].Result)
		if !reflect.DeepEqual(jr.Result, ref[i].Result) {
			t.Errorf("job %d: result differs from its 1-lane run", i)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("failing lane constructed %d times, want 3 (unit, failed retry, success)", n)
	}

	data, err := os.ReadFile(findJournal(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	perJob := make(map[int]int)
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind == "job" {
			perJob[rec.Index]++
		}
	}
	for i := range jobs {
		if perJob[jobs[i].Index] != 1 {
			t.Errorf("job %d: %d journal records, want 1", i, perJob[jobs[i].Index])
		}
	}
	if len(perJob) != len(jobs) {
		t.Errorf("journal holds records for %d job indices, want %d", len(perJob), len(jobs))
	}
	if got, want := deterministicJSON(t, reg), deterministicJSON(t, refReg); !bytes.Equal(got, want) {
		t.Errorf("metrics carry the failed attempts:\n%s\nvs\n%s", got, want)
	}
	if got, want := traceJSONL(t, tl), traceJSONL(t, refTl); !bytes.Equal(got, want) {
		t.Error("stitched trace differs from the 1-lane sweep")
	}
}

// countdownCtx cancels itself on its n-th Err call. The simulation
// polls its context once per control step, so on one worker this
// drains a sweep at a reproducible step without wrapping — and so
// unbatching — any controller.
type countdownCtx struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	ctx, cancel := context.WithCancel(context.Background())
	c := &countdownCtx{Context: ctx, cancel: cancel}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestBatchCheckpointDrainResume drains a journaled, checkpointing sweep
// of unwrapped On/Off and fuzzy lanes partway through its fuzzy unit,
// then resumes it: the drain must leave one checkpoint per fuzzy lane at
// a shared mid-cycle step, the resume must continue that unit in
// lockstep (no split), and the outcome must match an uninterrupted
// 1-lane sweep bit for bit.
func TestBatchCheckpointDrainResume(t *testing.T) {
	dir := t.TempDir()
	spec := batchSweepSpec()
	fuzzy := FuzzySpec(1)
	var fuzzyCalls atomic.Int32
	newFuzzy := fuzzy.New
	fuzzy.New = func() (control.Controller, error) {
		fuzzyCalls.Add(1)
		return newFuzzy() // still a *control.Fuzzy, so the lanes batch
	}
	spec.Controllers = []ControllerSpec{OnOffSpec(1), fuzzy}
	journal := func(resume bool) *JournalConfig {
		return &JournalConfig{Dir: dir, Resume: resume, CheckpointEvery: 25, Git: "test-build"}
	}

	// One worker runs the 4-lane On/Off unit (150 steps) to completion,
	// then the fuzzy unit until the countdown fires about 70 steps in.
	ctx := newCountdownCtx(230)
	defer ctx.cancel()
	first, err := Run(ctx, spec, Options{
		Workers: 1, Telemetry: telemetry.NewRegistry(), TraceLog: &telemetry.TraceLog{}, Journal: journal(false),
	})
	if err != nil {
		t.Fatal(err)
	}
	ckPath := func(jr *JobResult) string {
		return filepath.Join(dir, fmt.Sprintf("ckpt-%d-%s.json", jr.Job.Index, telemetry.FormatFingerprint(jr.Job.Fingerprint())))
	}
	step := -1
	for i := range first.Jobs {
		jr := &first.Jobs[i]
		isFuzzy := jr.Job.Controller.Label == fuzzy.Label
		if isFuzzy != (jr.Err != nil) {
			t.Fatalf("job %d (%s): err %v; want exactly the fuzzy unit drained", i, jr.Job.Controller.Label, jr.Err)
		}
		data, err := os.ReadFile(ckPath(jr))
		if !isFuzzy {
			if err == nil {
				t.Errorf("job %d: checkpoint left after success", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("job %d: no checkpoint after drain: %v", i, err)
		}
		var jc jobCheckpoint
		if err := json.Unmarshal(data, &jc); err != nil {
			t.Fatal(err)
		}
		if step < 0 {
			step = jc.Checkpoint.Step
		}
		if jc.Checkpoint.Step != step || step <= 50 || step >= 150 {
			t.Fatalf("job %d: checkpoint at step %d (lane 0 at %d); want one mid-cycle step past the last periodic one",
				i, jc.Checkpoint.Step, step)
		}
	}
	t.Logf("fuzzy unit drained at step %d of 150", step)

	fuzzyCalls.Store(0)
	reg := telemetry.NewRegistry()
	tl := &telemetry.TraceLog{}
	sw, err := Run(context.Background(), spec, Options{Workers: 1, Telemetry: reg, TraceLog: tl, Journal: journal(true)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.JobErrors(); err != nil {
		t.Fatal(err)
	}
	// The planner's probe plus one constructor per lane: a unit that
	// split would construct its lanes twice.
	if n := fuzzyCalls.Load(); n != 5 {
		t.Errorf("resume constructed %d fuzzy controllers, want 5 (probe + 4 lanes in lockstep)", n)
	}

	refReg := telemetry.NewRegistry()
	refTl := &telemetry.TraceLog{}
	ref, err := Run(context.Background(), spec,
		Options{Workers: 1, BatchSize: -1, Telemetry: refReg, TraceLog: refTl})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sw.Jobs {
		jr := &sw.Jobs[i]
		if isFuzzy := jr.Job.Controller.Label == fuzzy.Label; jr.Replayed == isFuzzy {
			t.Errorf("job %d (%s): replayed %v", i, jr.Job.Controller.Label, jr.Replayed)
		}
		identicalResults(t, fmt.Sprintf("job %d", i), jr.Result, ref.Jobs[i].Result)
		if _, err := os.Stat(ckPath(jr)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("job %d: checkpoint not removed after success: %v", i, err)
		}
	}
	if got, want := deterministicJSON(t, reg), deterministicJSON(t, refReg); !bytes.Equal(got, want) {
		t.Errorf("resumed metrics differ from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if got, want := traceJSONL(t, tl), traceJSONL(t, refTl); !bytes.Equal(got, want) {
		t.Error("resumed trace differs from uninterrupted run")
	}
}

// TestDuplicateCycleOwnCheckpointsAndRecords: a cycle listed twice
// expands to two jobs with one fingerprint. Drained mid-cycle under a
// checkpointing journal, each job leaves its own checkpoint; the resumed
// sweep continues both, journals one record per job, and each result
// equals the uninterrupted run's bit for bit.
func TestDuplicateCycleOwnCheckpointsAndRecords(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{
		Controllers: []ControllerSpec{OnOffSpec(1)},
		Cycles:      []CycleSpec{{Name: "ECE15"}, {Name: "ECE15"}},
		Envs:        []Env{{AmbientC: 35, SolarW: 400}},
		MaxProfileS: 150,
		BaseSeed:    7,
	}
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].Fingerprint() != jobs[1].Fingerprint() {
		t.Fatalf("%d jobs; want two sharing one fingerprint", len(jobs))
	}
	fp := telemetry.FormatFingerprint(jobs[0].Fingerprint())
	ckPath := func(i int) string { return filepath.Join(dir, fmt.Sprintf("ckpt-%d-%s.json", i, fp)) }
	journal := func(resume bool) *JournalConfig {
		return &JournalConfig{Dir: dir, Resume: resume, CheckpointEvery: 25, Git: "test-build"}
	}

	// The two On/Off lanes run as one unit until the countdown fires
	// about 80 steps in.
	ctx := newCountdownCtx(80)
	defer ctx.cancel()
	first, err := Run(ctx, spec, Options{Workers: 1, Journal: journal(false)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Jobs {
		if first.Jobs[i].Err == nil {
			t.Fatalf("job %d completed; want both drained", i)
		}
		data, err := os.ReadFile(ckPath(i))
		if err != nil {
			t.Fatalf("job %d: no checkpoint after drain: %v", i, err)
		}
		var jc jobCheckpoint
		if err := json.Unmarshal(data, &jc); err != nil {
			t.Fatal(err)
		}
		if jc.Checkpoint == nil || jc.Checkpoint.Step <= 25 || jc.Checkpoint.Step >= 150 {
			t.Fatalf("job %d: checkpoint %v, want a mid-cycle state", i, jc.Checkpoint)
		}
	}

	sw, err := Run(context.Background(), spec, Options{Workers: 1, Journal: journal(true)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.JobErrors(); err != nil {
		t.Fatal(err)
	}
	ref, err := Run(context.Background(), spec, Options{Workers: 1, BatchSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReadJournal(findJournal(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 2 {
		t.Errorf("journal holds %d records, want one per job", len(rep.Records))
	}
	for i := range sw.Jobs {
		jr := &sw.Jobs[i]
		if jr.Replayed {
			t.Errorf("job %d replayed; want it continued from its checkpoint", i)
		}
		if rec := rep.Records[i]; rec == nil || rec.Index != i || rec.Fingerprint != fp || rec.Result == nil {
			t.Errorf("job %d: journal record %+v", i, rec)
		}
		identicalResults(t, fmt.Sprintf("job %d", i), jr.Result, ref.Jobs[i].Result)
		if _, err := os.Stat(ckPath(i)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("job %d: checkpoint not removed after success: %v", i, err)
		}
	}
}

// TestBatchWatchdogSplitsUnit runs a batched grid under a watchdog no
// attempt can meet. Each multi-lane unit overruns it and splits; the
// overrun costs no job an attempt, so every job then times out exactly
// as it would alone: two attempts, one retried deadline, and one
// retry and one watchdog timeout each on the bookkeeping counters.
func TestBatchWatchdogSplitsUnit(t *testing.T) {
	reg := telemetry.NewRegistry()
	sw, err := Run(context.Background(), batchSweepSpec(), Options{
		Workers: 2, Telemetry: reg, JobTimeout: time.Nanosecond,
		Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sw.Jobs {
		jr := &sw.Jobs[i]
		if !errors.Is(jr.Err, context.DeadlineExceeded) || jr.Attempts != 2 ||
			len(jr.AttemptErrs) != 1 || !errors.Is(jr.AttemptErrs[0], context.DeadlineExceeded) {
			t.Errorf("job %d: err %v, attempts %d, attempt errors %v", i, jr.Err, jr.Attempts, jr.AttemptErrs)
		}
	}
	n := float64(len(sw.Jobs))
	for _, name := range []string{"resume_retries_total", "resume_watchdog_timeouts_total"} {
		if v := counterValue(t, reg, name); v != n {
			t.Errorf("%s = %v, want %v (one per job)", name, v, n)
		}
	}
}
