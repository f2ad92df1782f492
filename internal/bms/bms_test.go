package bms

import (
	"encoding/json"
	"math"
	"testing"
)

func newBMS(t *testing.T, mutate func(*Config)) *BMS {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.InitialSoC = 150 },
		func(c *Config) { c.MinSoC = 80; c.MaxSoC = 70 },
		func(c *Config) { c.MaxDischargeW = 0 },
		func(c *Config) { c.MaxChargeW = -1 },
		func(c *Config) { c.Pack.NominalVoltageV = 0 },
		func(c *Config) { c.SoH.Alpha = 0 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestStepAccumulatesCycleStats(t *testing.T) {
	b := newBMS(t, nil)
	prev := b.SoC()
	for i := 0; i < 10; i++ {
		_, soc := b.Step(10e3, 1)
		// SoC must be non-increasing under pure discharge.
		if soc > prev {
			t.Errorf("SoC rose during discharge at %d: %v → %v", i, prev, soc)
		}
		prev = soc
	}
	// The statistics cover the initial 90 % and one sample per Step.
	st := b.State().Cycle
	if st.N != 11 {
		t.Fatalf("cycle statistics hold %d samples, want 11", st.N)
	}
	if st.Mean >= 90 || st.Mean <= b.SoC() {
		t.Errorf("mean SoC %v outside (%v, 90)", st.Mean, b.SoC())
	}
}

// TestStateRoundTrip: a BMS restored mid-drive from a JSON round trip of
// another's State ends the drive with the same SoC, events and cycle
// statistics, bit for bit, as the BMS that was never interrupted.
func TestStateRoundTrip(t *testing.T) {
	load := func(i int) float64 { return 20e3 + 15e3*math.Sin(float64(i)/30) }
	ref := newBMS(t, nil)
	var split *BMS
	for i := 0; i < 1200; i++ {
		if i == 517 {
			raw, err := json.Marshal(ref.State())
			if err != nil {
				t.Fatal(err)
			}
			var st State
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			split = newBMS(t, nil)
			if err := split.SetState(st); err != nil {
				t.Fatal(err)
			}
		}
		ref.Step(load(i), 1)
		if split != nil {
			split.Step(load(i), 1)
		}
	}
	if got, want := split.State(), ref.State(); got != want {
		t.Errorf("restored BMS ends at %+v, uninterrupted at %+v", got, want)
	}
	dev, avg, err := split.CycleStats()
	if err != nil {
		t.Fatal(err)
	}
	refDev, refAvg, _ := ref.CycleStats()
	if dev != refDev || avg != refAvg {
		t.Errorf("restored stats %v/%v, uninterrupted %v/%v", dev, avg, refDev, refAvg)
	}
	if err := split.SetState(State{SoC: 50}); err == nil {
		t.Error("state without SoC samples accepted")
	}
}

func TestDischargePowerClipping(t *testing.T) {
	b := newBMS(t, nil)
	applied, _ := b.Step(500e3, 1)
	if applied != b.cfg.MaxDischargeW {
		t.Errorf("applied = %v, want clip to %v", applied, b.cfg.MaxDischargeW)
	}
	if b.Events().DischargeClipped != 1 {
		t.Errorf("clip event not counted: %+v", b.Events())
	}
}

func TestChargePowerClipping(t *testing.T) {
	b := newBMS(t, nil)
	applied, _ := b.Step(-500e3, 1)
	if applied != -b.cfg.MaxChargeW {
		t.Errorf("applied = %v, want clip to %v", applied, -b.cfg.MaxChargeW)
	}
	if b.Events().ChargeClipped != 1 {
		t.Errorf("clip event not counted: %+v", b.Events())
	}
}

func TestOverdischargeProtection(t *testing.T) {
	b := newBMS(t, func(c *Config) { c.InitialSoC = 10.0001; c.MinSoC = 10 })
	// Drain past the floor: the BMS must block further discharge.
	var blocked bool
	for i := 0; i < 5000; i++ {
		applied, soc := b.Step(50e3, 1)
		if soc <= 10 && applied == 0 {
			blocked = true
			break
		}
	}
	if !blocked {
		t.Fatal("overdischarge was never blocked")
	}
	if b.Events().OverdischargeBlocked == 0 {
		t.Error("overdischarge events not counted")
	}
	if b.SoC() < 9.9 {
		t.Errorf("SoC %v fell well below the protection floor", b.SoC())
	}
}

func TestOverchargeProtection(t *testing.T) {
	b := newBMS(t, func(c *Config) { c.InitialSoC = 99.9999 })
	var blocked bool
	for i := 0; i < 1000; i++ {
		applied, soc := b.Step(-30e3, 1)
		if soc >= 100 && applied == 0 {
			blocked = true
			break
		}
	}
	if !blocked {
		t.Fatal("overcharge was never blocked")
	}
	if b.Events().OverchargeBlocked == 0 {
		t.Error("overcharge events not counted")
	}
}

func TestCycleStatsAndDeltaSoH(t *testing.T) {
	b := newBMS(t, nil)
	for i := 0; i < 600; i++ {
		b.Step(20e3, 1)
	}
	dev, avg, err := b.CycleStats()
	if err != nil {
		t.Fatal(err)
	}
	if dev <= 0 {
		t.Errorf("dev = %v, want > 0 for a discharging trace", dev)
	}
	if avg >= 90 || avg <= 0 {
		t.Errorf("avg = %v, want in (0, 90)", avg)
	}
	d, err := b.DeltaSoH()
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("ΔSoH = %v, want > 0", d)
	}
}

func TestPeakShavingReducesDeltaSoH(t *testing.T) {
	// The core premise of the paper: the same total energy drawn as a
	// flat load degrades the battery less than a peaky load, because the
	// SoC trajectory deviates less from its mean path.
	flat := newBMS(t, nil)
	peaky := newBMS(t, nil)
	for i := 0; i < 1200; i++ {
		flat.Step(15e3, 1)
		if i%120 < 30 {
			peaky.Step(60e3, 1)
		} else {
			peaky.Step(0, 1)
		}
	}
	dFlat, err := flat.DeltaSoH()
	if err != nil {
		t.Fatal(err)
	}
	dPeaky, err := peaky.DeltaSoH()
	if err != nil {
		t.Fatal(err)
	}
	if dFlat >= dPeaky {
		t.Errorf("flat load ΔSoH %v should be below peaky %v", dFlat, dPeaky)
	}
}
