package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"evclimate/internal/runner"
	"evclimate/internal/sim"
	"evclimate/internal/telemetry"
)

// synthRecord builds a record fat enough (~1 KiB of metrics) that the
// spilling store's journal-vs-index ratio is measurable.
func synthRecord(i int, fail bool) *runner.JournalRecord {
	rec := &runner.JournalRecord{
		Kind:        "job",
		Index:       i,
		Fingerprint: telemetry.FormatFingerprint(uint64(i) * 0x9E3779B9),
		Seed:        int64(i),
		Attempts:    1,
		ElapsedNs:   int64(i) * 1000,
	}
	if fail {
		rec.Err = fmt.Sprintf("synthetic failure %d", i)
		return rec
	}
	rec.Result = &sim.Result{AvgHVACW: float64(i) * 1.25, DeltaSoH: float64(i) * 1e-6}
	for k := 0; k < 24; k++ {
		rec.Metrics = append(rec.Metrics, telemetry.Metric{
			Name: fmt.Sprintf("synthetic_series_%02d_total", k), Kind: "counter", Value: float64(i*100 + k),
		})
	}
	return rec
}

// spillJournal opens a fresh journal for n jobs to back a spilling
// store. Its fsync cadence is far above the record count: the store
// reads records back through the file, never past a crash.
func spillJournal(t *testing.T, n int) *runner.Journal {
	t.Helper()
	jnl, err := runner.OpenJournal(&runner.JournalConfig{Dir: t.TempDir(), FsyncEvery: 1 << 20, Git: "test"},
		"store", make([]uint64, n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	return jnl
}

// put stores rec the way the coordinator does: journal first (when the
// store spills), index second.
func put(t *testing.T, s *recordStore, rec *runner.JournalRecord) {
	t.Helper()
	var at runner.JournalPos
	if s.jnl != nil {
		var err error
		if at, err = s.jnl.Append(rec); err != nil {
			t.Fatalf("append %d: %v", rec.Index, err)
		}
	}
	s.Put(rec.Index, rec, at)
}

// storeOps exercises the recordStore contract in both modes: round-trip
// fidelity, overwrite, and failure accounting.
func storeOps(t *testing.T, s *recordStore) {
	t.Helper()
	const n = 64
	for i := 0; i < n; i++ {
		put(t, s, synthRecord(i, i%8 == 3))
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if got := s.Failed(); got != n/8 {
		t.Fatalf("Failed = %d, want %d", got, n/8)
	}
	// Byte-identical round trip for every record.
	for i := 0; i < n; i++ {
		got, err := s.Get(i)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		want, _ := json.Marshal(synthRecord(i, i%8 == 3))
		have, _ := json.Marshal(got)
		if string(want) != string(have) {
			t.Fatalf("record %d round trip:\n got %s\nwant %s", i, have, want)
		}
	}
	if s.Has(n) {
		t.Fatal("Has reports a record that was never put")
	}
	if rec, err := s.Get(n); err != nil || rec != nil {
		t.Fatalf("Get(absent) = %v, %v, want nil, nil", rec, err)
	}
	// Overwriting a failed record with a success drops the failure tally.
	put(t, s, synthRecord(3, false))
	if got := s.Failed(); got != n/8-1 {
		t.Fatalf("Failed after overwrite = %d, want %d", got, n/8-1)
	}
	if got, err := s.Get(3); err != nil || got.Err != "" || got.Result == nil {
		t.Fatalf("Get after overwrite = %+v, %v, want the success", got, err)
	}
}

func TestMemStoreOps(t *testing.T) {
	storeOps(t, newRecordStore(nil))
}

func TestSpillStoreOps(t *testing.T) {
	s := newRecordStore(spillJournal(t, 64))
	storeOps(t, s)
	for i, e := range s.m {
		if e.rec != nil {
			t.Fatalf("spilling store keeps record %d in memory", i)
		}
	}
}

// TestSpillStoreBoundedMemory is the O(index) claim: the journal holds
// far more record bytes than the spilling store's in-memory index. With
// ~1 KiB records and 32-byte index entries the ratio clears 10x with a
// wide margin — the acceptance bar for the spilling coordinator.
func TestSpillStoreBoundedMemory(t *testing.T) {
	const n = 512
	jnl := spillJournal(t, n)
	s := newRecordStore(jnl)
	for i := 0; i < n; i++ {
		put(t, s, synthRecord(i, false))
	}
	fi, err := os.Stat(jnl.Path())
	if err != nil {
		t.Fatal(err)
	}
	// The index is the only per-record memory: one storedRecord per
	// entry, plus map overhead counted generously at 4x.
	indexBytes := int64(s.Len()) * int64(unsafe.Sizeof(storedRecord{})) * 4
	t.Logf("journal %d bytes, index ~%d bytes (%.0fx)", fi.Size(), indexBytes, float64(fi.Size())/float64(indexBytes))
	if fi.Size() < 10*indexBytes {
		t.Fatalf("journal holds %d bytes vs ~%d index bytes; want >= 10x index", fi.Size(), indexBytes)
	}
	// Random access after heavy appending still round-trips.
	for _, i := range []int{0, 1, n / 2, n - 1} {
		rec, err := s.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(synthRecord(i, false))
		have, _ := json.Marshal(rec)
		if !bytes.Equal(want, have) {
			t.Fatalf("Get(%d) = %s, want %s", i, have, want)
		}
	}
}

// TestSpillingCoordinatorResume: a spilling coordinator whose journal
// lost its tail (a crash after three completions) resumes from it,
// re-runs only the lost jobs, and stitches artifacts byte-identical to
// a single-process run — records replayed from the journal and records
// appended after the resume both read back from their positions.
func TestSpillingCoordinatorResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates real cycles")
	}
	label := "fabric-grid"
	reg := telemetry.NewRegistry()
	tl := &telemetry.TraceLog{}
	man := telemetry.NewManifest("evbench")
	sw, err := runner.Run(context.Background(), mustSpec(t), runner.Options{
		Workers: 2, Telemetry: reg, TraceLog: tl, Manifest: man, ManifestLabel: label,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := collect(t, reg, tl, man, sw)

	dir := t.TempDir()
	first := runFabricWith(t, CoordinatorConfig{Label: label, Spill: true,
		Journal: &runner.JournalConfig{Dir: dir}}, 1)
	if !bytes.Equal(first.results, ref.results) {
		t.Fatalf("spilling run differs from single-process run\nfabric: %.400s\nref:    %.400s", first.results, ref.results)
	}

	// Keep the header, and everything up to the third job record.
	paths, _ := filepath.Glob(filepath.Join(dir, "*.journal"))
	if len(paths) != 1 {
		t.Fatalf("journals: %v", paths)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	const kept = 3
	cut, jobs := 0, 0
	for jobs < kept {
		nl := bytes.IndexByte(data[cut:], '\n')
		if nl < 0 {
			t.Fatalf("journal holds fewer than %d job records", kept)
		}
		if bytes.Contains(data[cut:cut+nl], []byte(`"kind":"job"`)) {
			jobs++
		}
		cut += nl + 1
	}
	if err := os.WriteFile(paths[0], data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	got := runFabricWith(t, CoordinatorConfig{Label: label, Spill: true,
		Journal: &runner.JournalConfig{Dir: dir, Resume: true}}, 1)
	for _, cmp := range []struct {
		name     string
		got, ref []byte
	}{
		{"metrics", got.metrics, ref.metrics},
		{"trace", got.trace, ref.trace},
		{"manifest", got.manifest, ref.manifest},
		{"results", got.results, ref.results},
	} {
		if !bytes.Equal(cmp.got, cmp.ref) {
			t.Errorf("resumed spilling run: %s differs from single-process run\nfabric: %.400s\nref:    %.400s",
				cmp.name, cmp.got, cmp.ref)
		}
	}
	// The resume replayed the kept records instead of re-running them:
	// one job record per job in the journal.
	data, err = os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(`"kind":"job"`)); n != len(sw.Jobs) {
		t.Errorf("journal holds %d job records after the resume, want %d", n, len(sw.Jobs))
	}
}
