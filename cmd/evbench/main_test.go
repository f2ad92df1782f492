package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runCLI invokes the testable entrypoint and returns (exit code, stdout,
// stderr).
func runCLI(ctx context.Context, args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(ctx, args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-exp", "nope"},
		{"-exp", "fig"}, // substrings of valid names are not names
		{"-exp", "1 fig5"},
		{"-exp", ""},
		{"-no-such-flag"},
		{"-resume"},                           // needs -journal
		{"-checkpoint-every", "50"},           // needs -journal
		{"-serve", ":0", "-join", "http://x"}, // one role per process
		{"-serve", ":0", "-spill"},            // needs -journal
		{"-spill", "-journal", "j"},           // needs -serve
		{"-serve", ":0", "-journal", "j", "-spill", "dir"}, // -spill takes no directory
	}
	for _, args := range cases {
		if code, _, _ := runCLI(context.Background(), args...); code != 2 {
			t.Errorf("evbench %v: exit %d, want 2", args, code)
		}
	}
	// A spilling coordinator reads its records back from the journal.
	if _, _, errOut := runCLI(context.Background(), "-serve", ":0", "-spill"); !strings.Contains(errOut, "-spill needs -journal") {
		t.Errorf("-serve -spill without -journal: stderr %q, want the -journal requirement", errOut)
	}
}

func TestFig1ExitsZero(t *testing.T) {
	code, out, errOut := runCLI(context.Background(), "-exp", "fig1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "fig1 completed") {
		t.Errorf("stdout missing completion note: %s", out)
	}
}

// TestFailedJobsExitNonZero is the regression pin for the old behavior
// of exiting 0 despite failed sweep jobs: an impossible per-job deadline
// fails every job, and the process must say so in its exit code and
// failure summary.
func TestFailedJobsExitNonZero(t *testing.T) {
	code, _, errOut := runCLI(context.Background(),
		"-exp", "fig5", "-quick", "-job-timeout", "1ns")
	if code != 1 {
		t.Fatalf("exit %d with all jobs timing out, want 1; stderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "experiment(s) failed") {
		t.Errorf("stderr missing failure summary: %s", errOut)
	}
}

// TestFleetHonorsSweepFlags pins -exp fleet to the shared sweep wiring:
// -quick truncates its trips, and its sweep lands in the manifest and the
// metrics dump like every other experiment's.
func TestFleetHonorsSweepFlags(t *testing.T) {
	dir := t.TempDir()
	manifest, metrics := filepath.Join(dir, "manifest.json"), filepath.Join(dir, "metrics.prom")
	code, _, errOut := runCLI(context.Background(),
		"-exp", "fleet", "-quick", "-workers", "2", "-manifest", manifest, "-metrics", metrics)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Runs []struct {
			Label string            `json:"label"`
			Jobs  []json.RawMessage `json:"jobs"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	fleetJobs := -1
	for _, r := range man.Runs {
		if r.Label == "fleet" {
			fleetJobs = len(r.Jobs)
		}
	}
	if fleetJobs != 20 {
		t.Errorf("manifest fleet run has %d jobs, want 20 (10 trips × 2 controllers; -1 = no fleet run)", fleetJobs)
	}
	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), `cycle="fleet-0"`) {
		t.Error(`metrics dump has no cycle="fleet-0" series`)
	}
}

func TestInterruptedExitsThreeWithResumeHint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the signal arrived before any experiment started
	code, _, errOut := runCLI(ctx, "-exp", "fig1")
	if code != 3 {
		t.Fatalf("exit %d when interrupted, want 3; stderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "-journal") {
		t.Errorf("stderr missing the resume hint: %s", errOut)
	}

	dir := t.TempDir()
	code, _, errOut = runCLI(ctx, "-exp", "fig1", "-journal", dir)
	if code != 3 || !strings.Contains(errOut, "-resume") {
		t.Errorf("journaled interrupt: exit %d, stderr %q — want 3 with a -resume hint", code, errOut)
	}
}

// TestServeJoinDistRoundTrip drives the distributed surface end to end:
// one -serve coordinator and one -join worker in the same process, over
// a real TCP port, finishing the quick dist sweep with exit 0 on both
// sides. The worker ignores its own -quick/-ambient flags — it rebuilds
// the sweep from the coordinator's wire params, which is what keeps the
// two expansions identical.
func TestServeJoinDistRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	type outcome struct {
		code        int
		out, errOut string
	}
	served := make(chan outcome, 1)
	go func() {
		code, out, errOut := runCLI(context.Background(), "-serve", addr, "-quick", "-workers", "2")
		served <- outcome{code, out, errOut}
	}()

	code, out, errOut := runCLI(context.Background(), "-join", "http://"+addr, "-workers", "2")
	if code != 0 {
		t.Fatalf("worker: exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "worker done") {
		t.Errorf("worker stdout missing completion note: %s", out)
	}

	sr := <-served
	if sr.code != 0 {
		t.Fatalf("coordinator: exit %d, stderr: %s", sr.code, sr.errOut)
	}
	for _, want := range []string{"coordinating", "Distributable sweep", "dist completed"} {
		if !strings.Contains(sr.out, want) {
			t.Errorf("coordinator stdout missing %q: %s", want, sr.out)
		}
	}
}

// TestServeJoinColdRoundTrip is the cold-climate counterpart of the
// dist round trip: the coordinator serves the thermal-plant sweep by
// its registered fabric name, the joining worker rebuilds the identical
// expansion (including the thermal Base config) from the wire params,
// and the stitched result renders the co-scheduling table.
func TestServeJoinColdRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	type outcome struct {
		code        int
		out, errOut string
	}
	served := make(chan outcome, 1)
	sctx, stop := context.WithCancel(context.Background())
	defer stop()
	go func() {
		code, out, errOut := runCLI(sctx,
			"-exp", "cold", "-serve", addr, "-quick", "-workers", "2")
		served <- outcome{code, out, errOut}
	}()

	code, out, errOut := runCLI(context.Background(), "-join", "http://"+addr, "-workers", "2")
	if code != 0 {
		// Why the worker lost its coordinator is on the coordinator's
		// side: report its outcome too, stopping it if it still runs.
		var sr outcome
		select {
		case sr = <-served:
		case <-time.After(10 * time.Second):
			stop()
			sr = <-served
			sr.errOut += "\n(still running after the worker exited; stopped by the test)"
		}
		t.Fatalf("worker: exit %d, stderr: %s\ncoordinator: exit %d, stdout: %s\nstderr: %s",
			code, errOut, sr.code, sr.out, sr.errOut)
	}
	if !strings.Contains(out, "worker done") {
		t.Errorf("worker stdout missing completion note: %s", out)
	}

	sr := <-served
	if sr.code != 0 {
		t.Fatalf("coordinator: exit %d, stderr: %s", sr.code, sr.errOut)
	}
	for _, want := range []string{"coordinating", "Cold-climate sweep", "Thermal", "cold completed"} {
		if !strings.Contains(sr.out, want) {
			t.Errorf("coordinator stdout missing %q: %s", want, sr.out)
		}
	}
}

// TestJournalResumeRoundTrip drives the full CLI surface: a journaled
// run, the exists-without-resume refusal, and a -resume re-run that
// replays from the journal successfully. The journal is the run's only
// on-disk state: no cache file is written beside it.
func TestJournalResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "fig5", "-quick", "-workers", "2", "-journal", dir}
	code, _, errOut := runCLI(context.Background(), args...)
	if code != 0 {
		t.Fatalf("journaled run: exit %d, stderr: %s", code, errOut)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*.journal")); len(m) == 0 {
		t.Fatal("no journal written")
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(m) != 0 {
		t.Fatalf("files beside the journal: %v", m)
	}

	// Same command without -resume must refuse to clobber the journal.
	code, _, errOut = runCLI(context.Background(), args...)
	if code != 1 || !strings.Contains(errOut, "already exists") {
		t.Fatalf("re-run without -resume: exit %d, stderr %q — want 1 with 'already exists'", code, errOut)
	}

	code, _, errOut = runCLI(context.Background(), append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed run: exit %d, stderr: %s", code, errOut)
	}
}

// TestResumeAfterOneExperiment resumes a whole run from the journal of
// a single experiment: the sweeps that never ran (Fig. 6's, Table I's,
// ...) must start fresh journals, not be refused as drifted copies of
// Fig. 5's, which shares their drive profile.
func TestResumeAfterOneExperiment(t *testing.T) {
	dir := t.TempDir()
	code, _, errOut := runCLI(context.Background(), "-quick", "-exp", "fig5", "-journal", dir)
	if code != 0 {
		t.Fatalf("fig5 run: exit %d, stderr: %s", code, errOut)
	}
	code, _, errOut = runCLI(context.Background(), "-quick", "-journal", dir, "-resume")
	if code != 0 {
		t.Fatalf("resumed run of every experiment: exit %d, stderr: %s", code, errOut)
	}
}
