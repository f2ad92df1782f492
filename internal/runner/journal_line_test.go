package runner_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"evclimate/internal/experiments"
	"evclimate/internal/runner"
)

// TestFleetJournalLinesAreJSONMarshal runs the fleet's commutes under
// the two batched baselines with a journal, so units of many lanes
// append together, and pins that every job line of the journal is
// json.Marshal of its record plus a newline — the form ChecksumRecord
// hashes and the fabric sends.
func TestFleetJournalLinesAreJSONMarshal(t *testing.T) {
	spec, err := experiments.FleetSpec(map[string]string{"trips": "20", "seed": "3", "max_s": "120"})
	if err != nil {
		t.Fatal(err)
	}
	spec.Controllers = []runner.ControllerSpec{runner.OnOffSpec(1), runner.FuzzySpec(1)}
	dir := t.TempDir()
	sw, err := runner.Run(context.Background(), spec, runner.Options{
		Workers: 2, ManifestLabel: "fleet",
		Journal: &runner.JournalConfig{Dir: dir, Git: "test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.JobErrors(); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("journals %v (%v), want one", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	jobs := 0
	for _, line := range lines[1 : len(lines)-1] { // header first, "" after the last newline
		var rec runner.JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, append(want, '\n')) {
			t.Fatalf("job %d: journal line is not json.Marshal of its record plus a newline", rec.Index)
		}
		if rec.Result == nil || len(rec.Result.Trace.Time) == 0 {
			t.Fatalf("job %d: record holds no trace", rec.Index)
		}
		jobs++
	}
	if jobs != len(sw.Jobs) || jobs < 2*runner.DefaultBatchSize {
		t.Errorf("%d job lines for %d jobs, want one each and more than one full unit", jobs, len(sw.Jobs))
	}
}
