package experiments

import (
	"strings"
	"testing"

	"evclimate/internal/core"
)

// ablationOpts: minimal MPC runs for the sweep tests.
func ablationOpts() Options {
	cfg := core.DefaultConfig()
	cfg.SQPMaxIter = 10
	return Options{MaxProfileS: 120, MPC: &cfg}
}

func TestAblateHorizon(t *testing.T) {
	rows, err := AblateHorizon(ablationOpts(), []int{4, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Label != "N=4" || rows[1].Label != "N=12" {
		t.Errorf("labels = %v, %v", rows[0].Label, rows[1].Label)
	}
	for _, r := range rows {
		if r.AvgHVACW <= 0 || r.DeltaSoH <= 0 {
			t.Errorf("%s: empty metrics %+v", r.Label, r)
		}
		if r.SolveTimeMs <= 0 {
			t.Errorf("%s: no solve-time measurement", r.Label)
		}
	}
	// A longer horizon costs more per solve.
	if rows[1].SolveTimeMs <= rows[0].SolveTimeMs {
		t.Errorf("N=12 (%v ms) should cost more than N=4 (%v ms)",
			rows[1].SolveTimeMs, rows[0].SolveTimeMs)
	}
}

func TestAblateSoCDevWeightZeroIsPlainMPC(t *testing.T) {
	rows, err := AblateSoCDevWeight(ablationOpts(), []float64{0, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Both configurations must produce valid runs; the w2=200 run couples
	// to the motor forecast, typically increasing SoC flatness (not
	// asserted strictly on a 120 s window — just structural validity).
	for _, r := range rows {
		if r.DeltaSoH <= 0 || r.SoCDev <= 0 {
			t.Errorf("%s: degenerate run %+v", r.Label, r)
		}
	}
	if rows[0].Label != "w2=0" {
		t.Errorf("label = %s", rows[0].Label)
	}
}

func TestAblateSQPBudget(t *testing.T) {
	rows, err := AblateSQPBudget(ablationOpts(), []int{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	// The single-QP controller must still produce a sane closed loop
	// (graceful degradation), and the 10-iteration budget should track
	// no worse than the single-QP one.
	singleQP, full := rows[0], rows[1]
	if singleQP.ComfortViolationFrac > 0.5 {
		t.Errorf("single-QP controller lost the cabin: %+v", singleQP)
	}
	if full.RMSTrackingErrC > singleQP.RMSTrackingErrC*1.5+0.2 {
		t.Errorf("more SQP iterations worsened tracking: %v vs %v",
			full.RMSTrackingErrC, singleQP.RMSTrackingErrC)
	}
}

func TestAblateControlPeriod(t *testing.T) {
	rows, err := AblateControlPeriod(ablationOpts(), []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AvgHVACW <= 0 {
			t.Errorf("%s: empty metrics", r.Label)
		}
	}
	if rows[1].Label != "dt=10s" {
		t.Errorf("label = %s", rows[1].Label)
	}
}

func TestRenderAblation(t *testing.T) {
	rows := []AblationRow{{Label: "N=4", AvgHVACW: 2000, DeltaSoH: 0.01, SoCDev: 1.5, RMSTrackingErrC: 0.3, SolveTimeMs: 12}}
	out := RenderAblation("test sweep", rows)
	if !strings.Contains(out, "N=4") || !strings.Contains(out, "test sweep") {
		t.Errorf("render missing content:\n%s", out)
	}
}
