package core

import (
	"testing"

	"evclimate/internal/control"
	"evclimate/internal/telemetry"
)

// The controller publishes mpc_real_time_factor (solve wall time ÷
// control period) when telemetry is bound, and the gauge carries a
// plausible value after one Decide. Being wall-clock-derived it must
// stay excluded from deterministic snapshots — a resumed or re-run
// sweep's manifest cannot depend on host speed.
func TestRealTimeFactorGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.NewSink(reg, nil)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Decide(control.StepContext{
		Dt: 5, CabinTempC: 25, OutsideC: 35, SolarW: 400,
		MotorPowerW: 10e3, SoC: 85, TargetC: 24,
		ComfortLowC: 21, ComfortHighC: 27,
	})
	v := reg.Gauge("mpc_real_time_factor").Value()
	if v <= 0 || v > 1 {
		t.Fatalf("mpc_real_time_factor = %v, want in (0, 1]", v)
	}
	if telemetry.DeterministicFilter("mpc_real_time_factor") {
		t.Fatal("mpc_real_time_factor not excluded by DeterministicFilter")
	}
}

// The solver counters mirror Stats: every factorization, capped QP and
// corrected SQP step the solver reports reaches
// mpc_kkt_factorizations_total, mpc_qp_capped_total and
// mpc_sqp_corrections_total, and all three are deterministic series.
func TestKKTCountersMatchStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := thermalTestConfig()
	cfg.Telemetry = telemetry.NewSink(reg, nil)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.Decide(thermColdCtx(float64(i) * 5))
	}
	st := c.Stats()
	if st.KKTFactorizations == 0 || st.Corrections == 0 {
		t.Fatalf("stats %+v: want KKT factorizations and corrected steps counted", st)
	}
	for name, want := range map[string]int{
		"mpc_kkt_factorizations_total": st.KKTFactorizations,
		"mpc_qp_capped_total":          st.CappedQPs,
		"mpc_sqp_corrections_total":    st.Corrections,
	} {
		if got := reg.Counter(name).Value(); got != float64(want) {
			t.Errorf("%s = %v, Stats %d", name, got, want)
		}
		if !telemetry.DeterministicFilter(name) {
			t.Errorf("%s excluded from deterministic snapshots", name)
		}
	}
}
