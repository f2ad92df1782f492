package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
)

// journalOpts is the standard journaled-sweep option set of these tests:
// a pinned Git stamp (so create and resume agree without shelling out)
// plus fresh telemetry so metric reconstruction is observable.
func journalOpts(dir string, resume bool) (Options, *telemetry.Registry, *telemetry.TraceLog) {
	reg := telemetry.NewRegistry()
	tl := &telemetry.TraceLog{}
	return Options{
		Workers:       2,
		Telemetry:     reg,
		TraceLog:      tl,
		ManifestLabel: "jtest",
		Journal:       &JournalConfig{Dir: dir, Resume: resume, Git: "test-build"},
	}, reg, tl
}

// deterministicJSON renders a registry's deterministic metric subset for
// byte comparison across runs.
func deterministicJSON(t *testing.T, reg *telemetry.Registry) []byte {
	t.Helper()
	data, err := json.Marshal(reg.Snapshot(telemetry.DeterministicFilter))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// traceJSONL renders a trace log without wall-clock timing for byte
// comparison across runs.
func traceJSONL(t *testing.T, tl *telemetry.TraceLog) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func findJournal(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("journal files in %s: %v (err %v)", dir, matches, err)
	}
	return matches[0]
}

func TestJournalWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts, _, _ := journalOpts(dir, false)
	sw, err := Run(context.Background(), quickSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.JobErrors(); err != nil {
		t.Fatal(err)
	}

	rep, err := ReadJournal(findJournal(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn {
		t.Error("clean journal reported torn")
	}
	h := rep.Header
	if h.Version != JournalVersion || h.Label != "jtest" || h.Git != "test-build" || h.Jobs != 8 {
		t.Errorf("header = %+v", h)
	}
	jobs, err := Expand(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if want := telemetry.FormatFingerprint(SweepFingerprint(Fingerprints(jobs))); h.SweepFingerprint != want {
		t.Errorf("header fingerprint %s, want %s", h.SweepFingerprint, want)
	}
	if len(rep.Records) != 8 {
		t.Fatalf("journal has %d records, want 8", len(rep.Records))
	}
	for i := range jobs {
		rec := rep.Records[i]
		if rec == nil {
			t.Fatalf("job %d missing from journal", i)
		}
		if rec.Fingerprint != telemetry.FormatFingerprint(jobs[i].Fingerprint()) {
			t.Errorf("job %d fingerprint %s", i, rec.Fingerprint)
		}
		if rec.Seed != jobs[i].Seed {
			t.Errorf("job %d seed %d, want %d", i, rec.Seed, jobs[i].Seed)
		}
		if rec.Result == nil || rec.Err != "" {
			t.Errorf("job %d: result %v, err %q", i, rec.Result, rec.Err)
		}
		if len(rec.Spans) == 0 || len(rec.Metrics) == 0 {
			t.Errorf("job %d: %d spans, %d metrics journaled", i, len(rec.Spans), len(rec.Metrics))
		}
	}
}

// TestJournalResumeReplaysByteIdentical is the tentpole determinism
// pin: a resumed sweep — every job replayed from the journal — must
// reproduce the results, stitched trace, and deterministic metrics of a
// plain single-worker run byte for byte.
func TestJournalResumeReplaysByteIdentical(t *testing.T) {
	dir := t.TempDir()
	opts, _, _ := journalOpts(dir, false)
	first, err := Run(context.Background(), quickSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.JobErrors(); err != nil {
		t.Fatal(err)
	}

	// Reference: no journal, one worker.
	refReg := telemetry.NewRegistry()
	refTl := &telemetry.TraceLog{}
	ref, err := Run(context.Background(), quickSpec(),
		Options{Workers: 1, Telemetry: refReg, TraceLog: refTl})
	if err != nil {
		t.Fatal(err)
	}

	// Resume: everything replays, nothing simulates.
	ropts, reg, tl := journalOpts(dir, true)
	man := telemetry.NewManifest("test")
	ropts.Manifest = man
	sw, err := Run(context.Background(), quickSpec(), ropts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sw.Jobs {
		if !sw.Jobs[i].Replayed {
			t.Errorf("job %d not replayed", i)
		}
		identicalResults(t, fmt.Sprintf("job %d", i), sw.Jobs[i].Result, ref.Jobs[i].Result)
	}
	if got, want := deterministicJSON(t, reg), deterministicJSON(t, refReg); !bytes.Equal(got, want) {
		t.Errorf("replayed metrics differ from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if got, want := traceJSONL(t, tl), traceJSONL(t, refTl); !bytes.Equal(got, want) {
		t.Error("replayed stitched trace differs from uninterrupted run")
	}
	if len(man.Resume) != 1 || man.Resume[0].ReplayedJobs != 8 {
		t.Errorf("manifest resume lineage = %+v", man.Resume)
	}
}

// TestJournalResumeAfterInterrupt drains a sweep mid-flight via context
// cancellation, then resumes it: the stitched outcome must match an
// uninterrupted run bit for bit.
func TestJournalResumeAfterInterrupt(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	opts, _, _ := journalOpts(dir, false)
	// One worker: the grid is two 4-lane units, and on two workers both
	// could finish before the cancel lands, leaving nothing to resume.
	// Cancelling on the 4th record, the end of the first unit, lets that
	// unit complete while the second never starts.
	opts.Workers = 1
	var records atomic.Int32
	opts.OnRecord = func(*JournalRecord) {
		if records.Add(1) == 4 {
			cancel()
		}
	}
	first, err := Run(ctx, quickSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	aborted := 0
	for i := range first.Jobs {
		if first.Jobs[i].Err != nil {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatal("cancellation aborted no jobs; cannot exercise resume")
	}

	refReg := telemetry.NewRegistry()
	refTl := &telemetry.TraceLog{}
	ref, err := Run(context.Background(), quickSpec(),
		Options{Workers: 1, Telemetry: refReg, TraceLog: refTl})
	if err != nil {
		t.Fatal(err)
	}

	ropts, reg, tl := journalOpts(dir, true)
	sw, err := Run(context.Background(), quickSpec(), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.JobErrors(); err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for i := range sw.Jobs {
		if sw.Jobs[i].Replayed {
			replayed++
		}
		identicalResults(t, fmt.Sprintf("job %d", i), sw.Jobs[i].Result, ref.Jobs[i].Result)
	}
	if replayed == 0 {
		t.Error("resume replayed nothing despite journaled records")
	}
	t.Logf("interrupted with %d jobs aborted, resumed replaying %d", aborted, replayed)
	if got, want := deterministicJSON(t, reg), deterministicJSON(t, refReg); !bytes.Equal(got, want) {
		t.Errorf("resumed metrics differ from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if got, want := traceJSONL(t, tl), traceJSONL(t, refTl); !bytes.Equal(got, want) {
		t.Error("resumed stitched trace differs from uninterrupted run")
	}
}

func TestJournalExistsWithoutResumeErrors(t *testing.T) {
	dir := t.TempDir()
	opts, _, _ := journalOpts(dir, false)
	if _, err := Run(context.Background(), quickSpec(), opts); err != nil {
		t.Fatal(err)
	}
	again, _, _ := journalOpts(dir, false)
	_, err := Run(context.Background(), quickSpec(), again)
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("re-run without Resume: err = %v, want 'already exists'", err)
	}
}

func TestJournalResumeRefusesMismatch(t *testing.T) {
	dir := t.TempDir()
	h := JournalHeader{
		Kind: "header", Version: JournalVersion, Label: "m",
		SweepFingerprint: "00000000deadbeef", Git: "g1", GoVersion: "go", Jobs: 4,
	}
	path := filepath.Join(dir, "m.journal")
	j, err := createJournal(path, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	cases := []struct {
		name string
		want JournalHeader
		frag string
	}{
		{"version", func() JournalHeader { w := h; w.Version = JournalVersion + 1; return w }(), "schema"},
		{"fingerprint", func() JournalHeader { w := h; w.SweepFingerprint = "00000000feedface"; return w }(), "spec or seed changed"},
		{"git", func() JournalHeader { w := h; w.Git = "g2"; return w }(), "this build is"},
		{"goversion", func() JournalHeader { w := h; w.GoVersion = "go9.9"; return w }(), "toolchains"},
		{"jobs", func() JournalHeader { w := h; w.Jobs = 5; return w }(), "jobs"},
	}
	for _, tc := range cases {
		_, err := resumeJournal(path, tc.want, 1)
		if !errors.Is(err, ErrJournalMismatch) {
			t.Errorf("%s mismatch: err = %v, want ErrJournalMismatch", tc.name, err)
		} else if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s mismatch: err %q does not mention %q", tc.name, err, tc.frag)
		}
	}
	if _, err := resumeJournal(path, h, 1); err != nil {
		t.Errorf("matching header refused: %v", err)
	}
}

// TestJournalResumeRefusesSilentRerun: resuming into a directory that
// holds this label's journal under a *different* sweep fingerprint —
// the spec drifted since the journal was written — must fail
// with the typed mismatch error and a remediation hint, not silently
// open a fresh journal and re-run every finished job.
func TestJournalResumeRefusesSilentRerun(t *testing.T) {
	dir := t.TempDir()
	opts, _, _ := journalOpts(dir, false)
	if _, err := Run(context.Background(), quickSpec(), opts); err != nil {
		t.Fatal(err)
	}

	drifted := quickSpec()
	drifted.MaxProfileS += 30 // new fingerprint, same label
	ropts, _, _ := journalOpts(dir, true)
	_, err := Run(context.Background(), drifted, ropts)
	if !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("drifted resume: err = %v, want ErrJournalMismatch", err)
	}
	for _, frag := range []string{"spec, seed, or profile changed", "start over"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("drifted resume: err %q does not mention %q", err, frag)
		}
	}
	// An unrelated label in the same directory is not a conflict.
	other, _, _ := journalOpts(dir, true)
	other.ManifestLabel = "other"
	if _, err := Run(context.Background(), drifted, other); err != nil {
		t.Errorf("fresh label in shared dir refused: %v", err)
	}
}

// TestJournalLeaseRecordsRoundTrip: fabric lease events journal through
// the same append-only log as job records and replay in append order,
// without perturbing job replay.
func TestJournalLeaseRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jobs, err := Expand(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := OpenJournal(&JournalConfig{Dir: dir, Git: "test-build"}, "lease", Fingerprints(jobs))
	if err != nil {
		t.Fatal(err)
	}
	events := []LeaseRecord{
		{Event: "grant", Unit: 0, Worker: "a", Lease: 1},
		{Event: "expire", Unit: 0, Worker: "a", Lease: 1},
		{Event: "grant", Unit: 0, Worker: "b", Lease: 2},
		{Event: "quarantine", Unit: 0, Worker: "b", Lease: 2},
	}
	for i := range events {
		if err := jnl.AppendLease(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := ReadJournal(findJournal(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 0 {
		t.Errorf("lease events leaked into job records: %d", len(rep.Records))
	}
	if len(rep.Leases) != len(events) {
		t.Fatalf("replayed %d lease events, want %d", len(rep.Leases), len(events))
	}
	for i, got := range rep.Leases {
		want := events[i]
		want.Kind = "lease"
		if got != want {
			t.Errorf("lease %d = %+v, want %+v", i, got, want)
		}
	}

	// Resuming a journal that holds lease events still works, and the
	// lease events never pose as finished jobs.
	jnl2, err := OpenJournal(&JournalConfig{Dir: dir, Resume: true, Git: "test-build"}, "lease", Fingerprints(jobs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if rec, _ := jnl2.Replayed(jobs[i].Index); rec != nil {
			t.Errorf("resume replayed job %d from a journal holding only lease events", jobs[i].Index)
		}
	}
	jnl2.Close()
}

func TestJournalTornTailToleratedAndTruncated(t *testing.T) {
	dir := t.TempDir()
	h := JournalHeader{
		Kind: "header", Version: JournalVersion,
		SweepFingerprint: "00000000deadbeef", Git: "g", GoVersion: "go", Jobs: 3,
	}
	path := filepath.Join(dir, "t.journal")
	j, err := createJournal(path, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := j.Append(&JournalRecord{Kind: "job", Index: i, Fingerprint: "00", Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	clean, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// A crash mid-append leaves a torn final line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"job","index":2,"fingerp`)
	f.Close()

	rep, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn journal rejected: %v", err)
	}
	if !rep.Torn {
		t.Error("torn tail not flagged")
	}
	if len(rep.Records) != 2 {
		t.Errorf("torn journal has %d records, want 2", len(rep.Records))
	}
	if rep.ValidLen != clean.Size() {
		t.Errorf("ValidLen %d, want %d", rep.ValidLen, clean.Size())
	}

	// Resume truncates the torn tail; subsequent appends land cleanly,
	// where the torn line began.
	j2, err := resumeJournal(path, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	ats, err := j2.Append(&JournalRecord{Kind: "job", Index: 2, Fingerprint: "00", Seed: 2})
	if err != nil || len(ats) != 1 {
		t.Fatalf("Append = %v, %v; want one position", ats, err)
	}
	at := ats[0]
	if at.Off != clean.Size() {
		t.Errorf("appended record at offset %d, want %d", at.Off, clean.Size())
	}
	// Replayed and appended records read back from their positions.
	for i := 0; i < 3; i++ {
		pos := at
		if i < 2 {
			_, pos = j2.Replayed(i)
		}
		rec, err := j2.ReadRecord(pos)
		if err != nil || rec.Index != i || rec.Seed != int64(i) {
			t.Errorf("ReadRecord(%+v) = %+v, %v, want job %d", pos, rec, err, i)
		}
	}
	j2.Close()
	rep2, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Torn || len(rep2.Records) != 3 {
		t.Errorf("after resume: torn %v, %d records, want clean 3", rep2.Torn, len(rep2.Records))
	}
}

// TestJournalLineIsJSONMarshal pins the journal's line encoding: for
// records with and without a result, with an empty trace, and with
// strings that hold a trace key, quotes and characters encoding/json
// escapes, each line is json.Marshal's bytes and a newline, and one
// Append of several records writes their lines back to back, reports
// each line's position and fsyncs once. A record whose trace does not
// encode fails its Append and is neither written nor synced.
func TestJournalLineIsJSONMarshal(t *testing.T) {
	tricky := `x","Trace":"<&>` + "\u2028"
	recs := []*JournalRecord{
		{Kind: "job", Index: 0, Fingerprint: "00", Err: tricky},
		{Kind: "job", Index: 1, Fingerprint: "01", Seed: -3, Attempts: 2, ElapsedNs: 7, Err: tricky,
			Result: &sim.Result{Controller: tricky, AvgHVACW: 1.5, Trace: sim.Trace{
				Time: []float64{0, 1}, CabinC: []float64{24, math.Copysign(0, -1)},
				Inputs: []cabin.Inputs{{Recirc: 0.5}, {AirFlowKgS: 1e-300}},
			}}},
		{Kind: "job", Index: 2, Fingerprint: "02", Cached: true, Result: &sim.Result{}},
	}
	var want [][]byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, append(line, '\n'))
	}

	path := filepath.Join(t.TempDir(), "t.journal")
	j, err := createJournal(path, JournalHeader{Kind: "header", Version: JournalVersion}, 1)
	if err != nil {
		t.Fatal(err)
	}
	at, err := j.Append(recs...)
	if err != nil {
		t.Fatal(err)
	}
	bad := &JournalRecord{Kind: "job", Index: 3, Result: &sim.Result{Trace: sim.Trace{Time: []float64{math.NaN()}}}}
	if _, err := j.Append(bad); err == nil {
		t.Error("a record with a NaN in its trace was journaled")
	}
	if got := j.Syncs(); got != 1 {
		t.Errorf("%d fsyncs, want 1 for one Append of %d records and none for the failed one", got, len(recs))
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(at) != len(recs) {
		t.Fatalf("Append reported %d positions for %d records", len(at), len(recs))
	}
	end := at[0].Off
	for k, pos := range at {
		if pos.Off != end {
			t.Errorf("record %d at offset %d, want %d (back to back)", k, pos.Off, end)
		}
		end = pos.Off + pos.Len
		if got := data[pos.Off:end]; !bytes.Equal(got, want[k]) {
			t.Errorf("record %d line differs from json.Marshal:\n got %s\nwant %s", k, got, want[k])
		}
	}
	if end != int64(len(data)) {
		t.Errorf("failed Append wrote %d bytes", int64(len(data))-end)
	}
}

func TestJournalCorruptMiddleErrors(t *testing.T) {
	header := fmt.Sprintf(`{"kind":"header","version":%d,"sweep_fingerprint":"00","git":"g","go_version":"go","jobs":2}`, JournalVersion)
	rec := `{"kind":"job","index":0,"fingerprint":"00","seed":1,"elapsed_ns":5}`
	_, err := ParseJournal([]byte(header + "\n" + "NOT JSON\n" + rec + "\n"))
	if err == nil || !strings.Contains(err.Error(), "corrupt journal record at line 2") {
		t.Errorf("corrupt middle line: err = %v", err)
	}
	if _, err := ParseJournal(nil); err == nil {
		t.Error("empty journal accepted")
	}
	if _, err := ParseJournal([]byte("garbage\n")); err == nil || !strings.Contains(err.Error(), "header") {
		t.Errorf("garbage header: err = %v", err)
	}
}

// TestJournalFailedJobRerunOnResume pins the WAL semantics for failures:
// a failed job is journaled for diagnostics but re-executed on resume.
func TestJournalFailedJobRerunOnResume(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int32
	spec := Spec{
		Controllers: []ControllerSpec{{
			Label:     "On/Off",
			ControlDt: 1,
			New: func() (control.Controller, error) {
				if calls.Add(1) == 1 {
					return nil, errors.New("transient constructor failure")
				}
				m, err := cabin.New(cabin.Default())
				if err != nil {
					return nil, err
				}
				return control.NewOnOff(m), nil
			},
		}},
		Cycles:      []CycleSpec{{Name: "ECE15"}},
		Envs:        []Env{{AmbientC: 35, SolarW: 400}},
		MaxProfileS: 120,
		BaseSeed:    11,
	}

	opts, _, _ := journalOpts(dir, false)
	first, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Jobs[0].Err == nil {
		t.Fatal("flaky job unexpectedly succeeded on first run")
	}
	rep, err := ReadJournal(findJournal(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec := rep.Records[0]; rec == nil || rec.Err == "" || rec.Result != nil {
		t.Fatalf("failed job journaled as %+v", rec)
	}

	ropts, _, _ := journalOpts(dir, true)
	sw, err := Run(context.Background(), spec, ropts)
	if err != nil {
		t.Fatal(err)
	}
	jr := &sw.Jobs[0]
	if jr.Err != nil || jr.Replayed {
		t.Fatalf("resume: err %v, replayed %v — want a fresh successful run", jr.Err, jr.Replayed)
	}
	rep, err = ReadJournal(findJournal(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec := rep.Records[0]; rec == nil || rec.Err != "" || rec.Result == nil {
		t.Errorf("re-run not journaled over the failure: %+v", rec)
	}
}

// TestChecksumRecordRoundTrip: the checksum survives a JSON round trip
// (the coordinator re-marshals what it decoded), is stable across
// calls, and changes when any payload value changes.
func TestChecksumRecordRoundTrip(t *testing.T) {
	rec := &JournalRecord{
		Kind: "job", Index: 7, Fingerprint: "00deadbeef00caf3", Seed: -42,
		Attempts: 2, ElapsedNs: 123456789,
		Result: &sim.Result{AvgHVACW: 512.25, DeltaSoH: 0.00125},
		Spans:  []telemetry.StepSpan{{Job: 7, Step: 1, TimeS: 2.5}},
		Metrics: telemetry.Snapshot{
			{Name: "a_total", Kind: "counter", Value: 3},
		},
	}
	sum, err := ChecksumRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != 16 {
		t.Fatalf("checksum %q, want fixed-width hex", sum)
	}
	if again, _ := ChecksumRecord(rec); again != sum {
		t.Errorf("checksum not stable: %s vs %s", sum, again)
	}
	// Wire round trip: decode + re-marshal must hash identically.
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back JournalRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got, _ := ChecksumRecord(&back); got != sum {
		t.Errorf("round-tripped checksum %s, want %s", got, sum)
	}
	// Any value change changes the sum.
	back.Result.DeltaSoH += 1e-9
	if got, _ := ChecksumRecord(&back); got == sum {
		t.Error("checksum unchanged after mutating the result payload")
	}
}

// TestJournalLinesReMarshalIdentically: every job line a real sweep
// journals — full traces in their packed form — decodes and re-marshals
// to exactly its bytes, which is what ChecksumRecord relies on when the
// fabric coordinator re-hashes a decoded completion.
func TestJournalLinesReMarshalIdentically(t *testing.T) {
	dir := t.TempDir()
	opts, _, _ := journalOpts(dir, false)
	if _, err := Run(context.Background(), quickSpec(), opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(findJournal(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	jobs := 0
	for _, line := range lines[1:] {
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Result == nil || len(rec.Result.Trace.Time) == 0 || len(rec.Result.Trace.Inputs) == 0 {
			t.Fatalf("job %d journaled without a full trace", rec.Index)
		}
		again, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, line) {
			t.Errorf("job %d: re-marshaled record differs from its journal line", rec.Index)
		}
		h := fnv.New64a()
		h.Write(line)
		if sum, _ := ChecksumRecord(&rec); sum != telemetry.FormatFingerprint(h.Sum64()) {
			t.Errorf("job %d: checksum %s is not the hash of the journaled bytes", rec.Index, sum)
		}
		jobs++
	}
	if jobs != 8 {
		t.Fatalf("%d job records, want 8", jobs)
	}
}

// TestJournalRefusesOtherSchema: a journal written by schema v1 (traces
// as JSON number arrays) is refused with ErrJournalMismatch — by
// ParseJournal and by a resuming sweep — rather than reported as
// corrupt or silently re-run.
func TestJournalRefusesOtherSchema(t *testing.T) {
	dir := t.TempDir()
	opts, _, _ := journalOpts(dir, false)
	if _, err := Run(context.Background(), quickSpec(), opts); err != nil {
		t.Fatal(err)
	}
	path := findJournal(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cur := fmt.Sprintf(`"version":%d`, JournalVersion)
	if !bytes.Contains(data, []byte(cur)) {
		t.Fatalf("journal header lacks %s", cur)
	}
	v1 := bytes.Replace(data, []byte(cur), []byte(`"version":1`), 1)
	// A v1 job line: the trace as an object of number arrays.
	v1 = append(v1, `{"kind":"job","index":0,"fingerprint":"00","seed":1,"elapsed_ns":5,"result":{"Trace":{"Time":[0,1],"Inputs":null}}}`+"\n"...)
	if _, err := ParseJournal(v1); !errors.Is(err, ErrJournalMismatch) || !strings.Contains(err.Error(), "schema v1") {
		t.Errorf("ParseJournal(v1): err = %v, want ErrJournalMismatch naming schema v1", err)
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	ropts, _, _ := journalOpts(dir, true)
	if _, err := Run(context.Background(), quickSpec(), ropts); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("resume of a v1 journal: err = %v, want ErrJournalMismatch", err)
	}
}

// TestJournalAppendRefusesNonFiniteTrace: a trace holding NaN cannot be
// journaled — the packed form refuses it as json.Marshal refuses a NaN
// float — so the job fails with the append error instead of writing a
// record that would not replay.
func TestJournalAppendRefusesNonFiniteTrace(t *testing.T) {
	jobs, err := Expand(oneJobSpec(OnOffSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	// A cache hit hands the pool a result without simulating it.
	cache := NewCache()
	cache.Put(jobs[0].Fingerprint(), &sim.Result{Controller: "On/Off",
		Trace: sim.Trace{Time: []float64{0, 1}, CabinC: []float64{30, math.NaN()}}}, time.Millisecond)
	dir := t.TempDir()
	out, err := RunJobs(context.Background(), jobs, Options{
		Cache: cache, Journal: &JournalConfig{Dir: dir, Git: "test-build"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := out[0].Err; err == nil || !strings.Contains(err.Error(), "journal append") ||
		!strings.Contains(err.Error(), "CabinC[1]") {
		t.Fatalf("job err = %v, want a journal append error naming CabinC[1]", err)
	}
	rep, err := ReadJournal(findJournal(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 0 {
		t.Errorf("journal holds %d records, want none", len(rep.Records))
	}
}
