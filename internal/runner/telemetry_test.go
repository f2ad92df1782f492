package runner

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"evclimate/internal/faults"
	"evclimate/internal/telemetry"
)

// telemetrySpec is the observability test scenario: truncated ECE_EUDC,
// both cheap baselines, a clean run plus the stuck-sensor fault so every
// label dimension (cycle, controller, scenario) is exercised.
func telemetrySpec(t *testing.T) Spec {
	t.Helper()
	stuck, err := faults.Builtin("stuck")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Controllers: []ControllerSpec{OnOffSpec(1), FuzzySpec(1)},
		Cycles:      []CycleSpec{{Name: "ECE_EUDC"}},
		Envs:        []Env{{AmbientC: 35, SolarW: 400}},
		Faults:      []faults.Spec{{Name: "none"}, stuck},
		MaxProfileS: 150,
		BaseSeed:    20150601,
	}
}

// telemetryArtifacts runs the spec with full observability wiring and
// returns the three deterministic artifacts: the stitched JSONL step
// trace, the deterministic-filtered Prometheus dump, and the manifest.
func telemetryArtifacts(t *testing.T, workers int) (trace, metrics, manifest []byte) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tl := &telemetry.TraceLog{}
	man := telemetry.NewManifest("test")
	sw, err := Run(context.Background(), telemetrySpec(t), Options{
		Workers:       workers,
		Telemetry:     reg,
		TraceLog:      tl,
		Manifest:      man,
		ManifestLabel: "telemetry-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if sw.Metrics == nil {
		t.Fatal("Sweep.Metrics nil despite Options.Telemetry")
	}

	var tb bytes.Buffer
	if err := tl.WriteJSONL(&tb, false); err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	if err := reg.Snapshot(telemetry.DeterministicFilter).WritePrometheus(&mb); err != nil {
		t.Fatal(err)
	}
	man.Finalize("test-fixed-version", reg.Snapshot(telemetry.DeterministicFilter))
	var mfb bytes.Buffer
	if err := man.Write(&mfb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes(), mfb.Bytes()
}

// TestSweepTelemetryWorkerCountDeterminism pins the acceptance criterion:
// the JSONL trace, the deterministic metric dump, and the run manifest
// are byte-identical whether the sweep runs sequentially or across a
// worker pool.
func TestSweepTelemetryWorkerCountDeterminism(t *testing.T) {
	tr1, me1, ma1 := telemetryArtifacts(t, 1)
	tr4, me4, ma4 := telemetryArtifacts(t, 4)

	if !bytes.Equal(tr1, tr4) {
		t.Errorf("JSONL step trace differs between 1 and 4 workers:\n--- workers=1 ---\n%.2000s\n--- workers=4 ---\n%.2000s", tr1, tr4)
	}
	if !bytes.Equal(me1, me4) {
		t.Errorf("deterministic metric dump differs between 1 and 4 workers:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", me1, me4)
	}
	if !bytes.Equal(ma1, ma4) {
		t.Errorf("manifest differs between 1 and 4 workers:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", ma1, ma4)
	}
	if len(tr1) == 0 {
		t.Error("step trace is empty — jobs emitted no spans")
	}
	for _, want := range []string{"sim_steps_total", "runner_jobs_total", `scenario="stuck"`} {
		if !strings.Contains(string(me1), want) {
			t.Errorf("metric dump missing %q", want)
		}
	}
}

// TestSweepTelemetryRace hammers one shared registry from the sweep's
// worker pool while a reader concurrently snapshots it — the test's
// value is under `go test -race`.
func TestSweepTelemetryRace(t *testing.T) {
	reg := telemetry.NewRegistry()
	tl := &telemetry.TraceLog{}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := reg.Snapshot(nil)
			var sb strings.Builder
			if err := snap.WritePrometheus(&sb); err != nil {
				t.Errorf("concurrent WritePrometheus: %v", err)
				return
			}
		}
	}()

	sw, err := Run(context.Background(), telemetrySpec(t), Options{
		Workers:   8,
		Telemetry: reg,
		TraceLog:  tl,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.FirstErr(); err != nil {
		t.Fatal(err)
	}

	// Atomic adds commute: the final step count equals the sum of every
	// job's simulated steps regardless of interleaving.
	var steps float64
	for _, m := range reg.Snapshot(nil) {
		if m.Name == "sim_steps_total" {
			steps += m.Value
		}
	}
	if want := float64(tl.Len()); steps != want {
		t.Errorf("sim_steps_total sums to %.0f, want %.0f (= traced spans)", steps, want)
	}
}

// TestGoldenManifest pins the deterministic identity of the truncated
// ECE_EUDC telemetry sweep: every job's derived seed and scenario
// fingerprint, and the sweep fingerprint over them. A failure here means
// seed derivation, spec expansion order, or the fingerprint hash changed
// — all of which silently invalidate cached results and recorded
// manifests, so any change must be deliberate (update the goldens in the
// same commit that changes the scheme). The fingerprints were re-pinned
// when Job.Seed left the hash (it reaches a result only through
// Config.FaultSeed, which the hash covers); the seeds did not move.
// They were re-pinned again when the job hash began to take the
// profile's FNV-1a digest in place of its samples, so that a sweep
// hashes each shared profile once; the seeds did not move.
func TestGoldenManifest(t *testing.T) {
	jobs, err := Expand(telemetrySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	ri := ManifestRunInfo("golden", 20150601, jobs, Fingerprints(jobs))

	const wantSweepFP = "ce0a3e8a6368c8cd"
	want := []struct {
		cycle, controller, scenario string
		seed                        int64
		fp                          string
	}{
		{"ECE_EUDC", "On/Off", "", -2711457506983803706, "cda2f49b66c0c425"},
		{"ECE_EUDC", "Fuzzy-based", "", 5494506592831746107, "fb0f1c9501cdf89a"},
		{"ECE_EUDC", "On/Off", "stuck", -1735793612705131672, "b719b63028cbe74a"},
		{"ECE_EUDC", "Fuzzy-based", "stuck", -3557642015698659178, "226d8c3ffcb5efb6"},
	}

	if len(ri.Jobs) != len(want) {
		t.Fatalf("expanded to %d jobs, want %d", len(ri.Jobs), len(want))
	}
	if ri.Fingerprint != wantSweepFP {
		t.Errorf("sweep fingerprint = %q, want %q", ri.Fingerprint, wantSweepFP)
	}
	for i, w := range want {
		j := ri.Jobs[i]
		if j.Cycle != w.cycle || j.Controller != w.controller || j.Scenario != w.scenario {
			t.Errorf("job %d = (%s, %s, %q), want (%s, %s, %q)",
				i, j.Cycle, j.Controller, j.Scenario, w.cycle, w.controller, w.scenario)
		}
		if j.Seed != w.seed {
			t.Errorf("job %d seed = %d, want %d", i, j.Seed, w.seed)
		}
		if j.Fingerprint != w.fp {
			t.Errorf("job %d fingerprint = %q, want %q", i, j.Fingerprint, w.fp)
		}
	}
	if t.Failed() {
		t.Logf("actual golden values:\nsweep %s", ri.Fingerprint)
		for _, j := range ri.Jobs {
			t.Logf("  {%q, %q, %q, %d, %q},", j.Cycle, j.Controller, j.Scenario, j.Seed, j.Fingerprint)
		}
	}
}
