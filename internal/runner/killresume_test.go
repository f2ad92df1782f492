package runner

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"evclimate/internal/control"
	"evclimate/internal/telemetry"
)

// The kill-and-resume integration test runs a journaled sweep in a
// subprocess (this test binary re-executing itself), SIGKILLs it once
// the journal holds at least one record, then resumes the journal
// in-process and checks the stitched outcome — results, trace, metrics —
// against an uninterrupted single-worker run, byte for byte. SIGKILL
// (unlike the context-drain test) exercises the torn-tail path for real:
// the process may die mid-append.

const (
	killHelperEnv = "EVC_KILLRESUME_HELPER"
	killDirEnv    = "EVC_KILLRESUME_DIR"
)

// killSpec paces each job to hundreds of milliseconds (2 ms per control
// step) so the parent reliably lands its SIGKILL mid-sweep. The sleep
// does not perturb the trajectory, so the reference run matches bit for
// bit.
func killSpec() Spec {
	slow := func(inner ControllerSpec) ControllerSpec {
		newInner := inner.New
		inner.New = func() (control.Controller, error) {
			c, err := newInner()
			if err != nil {
				return nil, err
			}
			return &slowController{inner: c, delay: 2 * time.Millisecond}, nil
		}
		return inner
	}
	return Spec{
		Controllers: []ControllerSpec{slow(OnOffSpec(1)), slow(FuzzySpec(1))},
		Cycles:      []CycleSpec{{Name: "ECE15"}, {Name: "UDDS"}},
		Envs:        []Env{{AmbientC: 35, SolarW: 400}},
		MaxProfileS: 120,
		BaseSeed:    77,
	}
}

// TestKillResumeHelper is the subprocess body, inert in normal runs.
func TestKillResumeHelper(t *testing.T) {
	if os.Getenv(killHelperEnv) != "1" {
		t.Skip("subprocess helper for TestKillAndResumeByteIdentical")
	}
	_, err := Run(context.Background(), killSpec(), Options{
		Workers:       1,
		Telemetry:     telemetry.NewRegistry(),
		TraceLog:      &telemetry.TraceLog{},
		ManifestLabel: "kill",
		Journal:       &JournalConfig{Dir: os.Getenv(killDirEnv), Git: "kill-test", FsyncEvery: 1},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func TestKillAndResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestKillResumeHelper$", "-test.v")
	cmd.Env = append(os.Environ(), killHelperEnv+"=1", killDirEnv+"="+dir)
	var childOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childOut, &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill as soon as the journal holds one durable record. The journal
	// may be mid-append at kill time — exactly the torn tail the parser
	// must tolerate.
	journalPath := filepath.Join(dir, "kill-"+telemetry.FormatFingerprint(mustSweepFingerprint(t))+".journal")
	deadline := time.Now().Add(30 * time.Second)
	killed := false
	for time.Now().Before(deadline) {
		if rep, err := ReadJournal(journalPath); err == nil && len(rep.Records) >= 1 {
			cmd.Process.Kill() // SIGKILL: no handlers, no flushes
			killed = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	err := cmd.Wait()
	if !killed {
		t.Fatalf("journal never gained a record; child: %v\n%s", err, childOut.String())
	}
	rep, rerr := ReadJournal(journalPath)
	if rerr != nil {
		t.Fatalf("journal unreadable after SIGKILL: %v", rerr)
	}
	t.Logf("killed child with %d/4 jobs journaled (torn tail: %v)", len(rep.Records), rep.Torn)

	// Resume in-process at a different worker count.
	reg := telemetry.NewRegistry()
	tl := &telemetry.TraceLog{}
	man := telemetry.NewManifest("test")
	sw, err := Run(context.Background(), killSpec(), Options{
		Workers: 4, Telemetry: reg, TraceLog: tl, Manifest: man, ManifestLabel: "kill",
		Journal: &JournalConfig{Dir: dir, Resume: true, Git: "kill-test", FsyncEvery: 1},
	})
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
	}
	if replayed < 1 {
		t.Error("resume replayed no journaled jobs")
	}
	if len(man.Resume) != 1 || man.Resume[0].ReplayedJobs != replayed {
		t.Errorf("manifest resume lineage %+v (replayed %d)", man.Resume, replayed)
	}

	// Reference: uninterrupted, single worker, no journal.
	refReg := telemetry.NewRegistry()
	refTl := &telemetry.TraceLog{}
	ref, err := Run(context.Background(), killSpec(),
		Options{Workers: 1, Telemetry: refReg, TraceLog: refTl})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sw.Jobs {
		identicalResults(t, fmt.Sprintf("job %d", i), sw.Jobs[i].Result, ref.Jobs[i].Result)
	}
	if got, want := deterministicJSON(t, reg), deterministicJSON(t, refReg); !bytes.Equal(got, want) {
		t.Errorf("stitched metrics differ from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if got, want := traceJSONL(t, tl), traceJSONL(t, refTl); !bytes.Equal(got, want) {
		t.Error("stitched trace differs from uninterrupted run")
	}
}

func mustSweepFingerprint(t *testing.T) uint64 {
	t.Helper()
	jobs, err := Expand(killSpec())
	if err != nil {
		t.Fatal(err)
	}
	return SweepFingerprint(Fingerprints(jobs))
}
