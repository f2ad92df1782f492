package experiments

import (
	"fmt"
	"strings"
	"testing"

	"evclimate/internal/runner"
)

// TestColdSpecPure pins the fabric contract: two builds from the same
// wire parameters expand identical jobs (coordinator and joining
// workers must agree on the shard map), and the spec carries the
// thermal plant into every job.
func TestColdSpecPure(t *testing.T) {
	params := ColdParams(Options{MaxProfileS: 120})
	a, err := ColdSpec(params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ColdSpec(params)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := runner.Expand(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := runner.Expand(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ja) != len(jb) || len(ja) == 0 {
		t.Fatalf("job counts %d vs %d", len(ja), len(jb))
	}
	if fa, fb := runner.SweepFingerprint(runner.Fingerprints(ja)), runner.SweepFingerprint(runner.Fingerprints(jb)); fa != fb {
		t.Fatalf("sweep fingerprints differ: %x vs %x", fa, fb)
	}
	if a.Base == nil || a.Base.Thermal == nil {
		t.Fatal("cold spec must carry the thermal plant template")
	}
	if !a.StartFromAmbient {
		t.Fatal("cold spec must soak the cabin at ambient")
	}
	// The four methodologies, in ladder order.
	want := []string{NameOnOff, NameFuzzy, NameMPC, NameThermalMPC}
	if len(a.Controllers) != len(want) {
		t.Fatalf("controllers = %d, want %d", len(a.Controllers), len(want))
	}
	for i, c := range a.Controllers {
		if c.Label != want[i] {
			t.Errorf("controller %d = %q, want %q", i, c.Label, want[i])
		}
	}
}

// TestColdSpecRegistered checks the fabric registry resolves the cold
// sweep by name — the path `evbench -serve`/-join workers take.
func TestColdSpecRegistered(t *testing.T) {
	spec, err := FabricSpecs().Build("cold", ColdParams(Options{MaxProfileS: 60}))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := runner.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := len(ColdCycles) * len(ColdAmbients) * len(spec.Controllers)
	if len(jobs) != want {
		t.Fatalf("registry expanded %d jobs, want %d", len(jobs), want)
	}
}

// TestRunColdQuick runs the truncated sweep end-to-end and reduces it to
// table rows: one per (cycle, ambient) cell, each carrying all four
// controllers and a plausible cold-pack trajectory.
func TestRunColdQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full cold sweep in -short mode")
	}
	sw, err := RunCold(Options{MaxProfileS: 120})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ColdRows(sw)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rows), len(ColdCycles)*len(ColdAmbients); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
	for _, r := range rows {
		if r.MPCDeltaSoH <= 0 || r.ThermalDeltaSoH <= 0 {
			t.Errorf("%s@%g: degenerate ΔSoH %+v", r.Cycle, r.AmbientC, r)
		}
		// The pack starts soaked at ambient and the drive cannot cool it
		// below that soak.
		if r.ThermalPackMinC < r.AmbientC-0.5 {
			t.Errorf("%s@%g: pack min %.2f °C below soak", r.Cycle, r.AmbientC, r.ThermalPackMinC)
		}
	}
	out := RenderCold(rows)
	if !strings.Contains(out, "ECE15") || !strings.Contains(out, "UDDS") {
		t.Errorf("render missing cycles:\n%s", out)
	}
}

// TestDepotRowsMatchExperiments pins EXPERIMENTS.md's depot-
// preconditioning table, which `evbench -exp cold` prints after the
// sweep, at the precision the table prints.
func TestDepotRowsMatchExperiments(t *testing.T) {
	rows, err := DepotRows()
	if err != nil {
		t.Fatal(err)
	}
	want := [][5]string{
		{"-20", "4.12", "20.01", "+26", "15.1"},
		{"-10", "2.98", "18.86", "+19", "15.1"},
		{"0", "1.79", "17.68", "+11", "15.1"},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d depot rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		got := [5]string{
			fmt.Sprintf("%.0f", r.AmbientC),
			fmt.Sprintf("%.2f", r.HeaterKWh),
			fmt.Sprintf("%.2f", r.WallKWh),
			fmt.Sprintf("%+.0f", r.ExtraPct),
			fmt.Sprintf("%.1f", r.DeparturePackC),
		}
		if got != want[i] {
			t.Errorf("depot row %d = %v, want %v (soak, heater kWh, wall kWh, %% over charge-only, departure °C)", i, got, want[i])
		}
	}
}
