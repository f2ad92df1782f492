package battery_test

import (
	"math"
	"testing"

	"evclimate/internal/battery"
	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/drivecycle"
	"evclimate/internal/sim"
)

// TestSoCStatsMatchesTwoPass drives every named cycle under the fuzzy
// controller and checks the run's online SoCdev, SoCavg and ΔSoH against
// the two-pass reference over the same samples: the initial SoC and the
// SoC after every step.
func TestSoCStatsMatchesTwoPass(t *testing.T) {
	m, err := cabin.New(cabin.Default())
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-12
	rel := func(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }
	for _, name := range drivecycle.Names() {
		c, err := drivecycle.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig(c.Profile(1).WithAmbient(35).WithSolar(400))
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(control.NewFuzzy(m))
		if err != nil {
			t.Fatal(err)
		}
		trace := append([]float64{cfg.BMS.InitialSoC}, res.Trace.SoC...)
		dev, avg, err := battery.CycleStats(trace)
		if err != nil {
			t.Fatal(err)
		}
		dsoh := cfg.BMS.SoH.DeltaSoH(dev, avg)
		if rel(res.SoCDev, dev) > tol || rel(res.SoCAvg, avg) > tol || rel(res.DeltaSoH, dsoh) > tol {
			t.Errorf("%s: online dev %v avg %v ΔSoH %v, two-pass %v %v %v", name, res.SoCDev, res.SoCAvg, res.DeltaSoH, dev, avg, dsoh)
		}
	}
}

// TestSoCStatsConstantTrace: a constant trace has exactly zero
// deviation and its value as the mean.
func TestSoCStatsConstantTrace(t *testing.T) {
	var s battery.SoCStats
	for i := 0; i < 5000; i++ {
		s.Add(73.3)
	}
	dev, avg, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if dev != 0 || avg != 73.3 {
		t.Errorf("constant trace: dev %v avg %v, want 0 and 73.3", dev, avg)
	}
}
