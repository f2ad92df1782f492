package thermal

import (
	"math"
	"math/rand"
	"testing"
)

func TestValidate(t *testing.T) {
	cfg := DefaultThermal()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Network.PackHeatCapJK = 0 },
		func(c *Config) { c.Network.UAPackCabinWK = -1 },
		func(c *Config) { c.Network.HeaterEff = 1.5 },
		func(c *Config) { c.Network.ChillerCOP = 0 },
		func(c *Config) { c.Network.MaxHeaterW = -1 },
		func(c *Config) { c.HeatPump.COPAt7C = 0 },
		func(c *Config) { c.HeatPump.COPMin = 2; c.HeatPump.COPMax = 1 },
		func(c *Config) { c.HeatPump.PTCEff = 0 },
		func(c *Config) { c.PackFromAmbient = false; c.InitialPackC = math.NaN() },
	}
	for i, mut := range bad {
		c := DefaultThermal()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestHeatPumpCurve(t *testing.T) {
	hp := DefaultHeatPump()
	if got := hp.COP(7); math.Abs(got-3.0) > 1e-12 {
		t.Errorf("COP(7) = %v, want 3.0 (rated point)", got)
	}
	if hp.COP(-10) >= hp.COP(0) || hp.COP(0) >= hp.COP(10) {
		t.Error("COP must increase with ambient")
	}
	if got := hp.COP(-100); got != hp.COPMin {
		t.Errorf("COP(-100) = %v, want clamp at %v", got, hp.COPMin)
	}
	if got := hp.COP(100); got != hp.COPMax {
		t.Errorf("COP(100) = %v, want clamp at %v", got, hp.COPMax)
	}
	// Mode decision: PTC strictly below cutoff, heat pump at and above.
	if eff, ptc := hp.Heating(-20); !ptc || eff != hp.PTCEff {
		t.Errorf("Heating(-20) = (%v, %v), want PTC fallback at %v", eff, ptc, hp.PTCEff)
	}
	if eff, ptc := hp.Heating(hp.CutoffC); ptc || eff != hp.COP(hp.CutoffC) {
		t.Errorf("Heating(cutoff) = (%v, %v), want heat pump", eff, ptc)
	}
	if eff, ptc := hp.Heating(0); ptc || eff <= 1 {
		t.Errorf("Heating(0) = (%v, %v), want heat-pump COP > 1", eff, ptc)
	}
}

func TestPackResistanceCold(t *testing.T) {
	net := DefaultNetwork()
	if got := net.PackResistanceOhm(25); math.Abs(got-net.PackResistance25Ohm) > 1e-15 {
		t.Errorf("R(25) = %v, want reference %v", got, net.PackResistance25Ohm)
	}
	r20 := net.PackResistanceOhm(-20)
	if ratio := r20 / net.PackResistance25Ohm; ratio < 2 || ratio > 2.5 {
		t.Errorf("R(-20)/R(25) = %v, want ≈ 2.2 (cold-electrolyte penalty)", ratio)
	}
	if net.PackResistanceOhm(40) >= net.PackResistance25Ohm {
		t.Error("resistance must fall above the reference temperature")
	}
}

func TestEffectivePackAmbientUA(t *testing.T) {
	net := DefaultNetwork()
	got := net.EffectivePackAmbientUA()
	series := net.UAPackCoolantWK * net.UACoolantAmbientWK / (net.UAPackCoolantWK + net.UACoolantAmbientWK)
	want := net.UAPackAmbientWK + series
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("effective UA = %v, want %v", got, want)
	}
	// Degenerate loop: no coolant path leaves only the direct conductance.
	net.UAPackCoolantWK, net.UACoolantAmbientWK = 0, 0
	if got := net.EffectivePackAmbientUA(); got != net.UAPackAmbientWK {
		t.Errorf("effective UA without loop = %v, want %v", got, net.UAPackAmbientWK)
	}
}

// TestEnergyConservationProperty drives the network through random
// schedules (cabin/ambient excursions, Joule heat bursts, heater/chiller
// commands beyond their clamps, irregular step sizes) and checks the
// enthalpy balance: the change in stored energy must equal the
// integrated boundary heat to roundoff.
func TestEnergyConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 50; trial++ {
		cfg := DefaultThermal()
		cfg.PackFromAmbient = false
		cfg.InitialPackC = -30 + 70*rng.Float64()
		s, err := NewState(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		var absFlowJ float64
		steps := 200 + rng.Intn(400)
		for i := 0; i < steps; i++ {
			cab := -10 + 40*rng.Float64()
			amb := -30 + 60*rng.Float64()
			joule := 3000 * rng.Float64()
			bh := -500 + 6000*rng.Float64() // exercises both clamps
			bc := -500 + 3000*rng.Float64()
			dt := 0.5 + 9.5*rng.Float64()
			f := s.Step(cab, amb, joule, bh, bc, dt)
			absFlowJ += (math.Abs(f.PackJouleW) + f.HeaterHeatW + f.ChillerHeatW +
				math.Abs(f.PackToCabinW) + math.Abs(f.PackToAmbientW) + math.Abs(f.CoolantToAmbientW)) * dt
			if f.HeaterElecW < 0 || f.HeaterElecW > cfg.Network.MaxHeaterW {
				t.Fatalf("heater electrical %v outside [0, %v]", f.HeaterElecW, cfg.Network.MaxHeaterW)
			}
			if f.ChillerElecW < 0 || f.ChillerElecW > cfg.Network.MaxChillerW {
				t.Fatalf("chiller electrical %v outside [0, %v]", f.ChillerElecW, cfg.Network.MaxChillerW)
			}
		}
		tol := 1e-9 * (absFlowJ + math.Abs(s.storedJ()))
		if defect := math.Abs(s.EnergyDefectJ()); defect > tol {
			t.Fatalf("trial %d: energy defect %v J exceeds roundoff tolerance %v J", trial, defect, tol)
		}
	}
}

// TestSnapshotBitExact interleaves snapshot/restore at random steps with
// an uninterrupted reference run and requires bit-identical state.
func TestSnapshotBitExact(t *testing.T) {
	cfg := DefaultThermal()
	ref, err := NewState(cfg, -20)
	if err != nil {
		t.Fatal(err)
	}
	live, _ := NewState(cfg, -20)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		cab := -5 + 25*rng.Float64()
		amb := -20 + 10*rng.Float64()
		joule := 2000 * rng.Float64()
		bh := 4000 * rng.Float64()
		bc := 1000 * rng.Float64()
		ref.Step(cab, amb, joule, bh, bc, 5)
		live.Step(cab, amb, joule, bh, bc, 5)
		if rng.Intn(20) == 0 {
			fresh, _ := NewState(cfg, -20)
			if err := fresh.Restore(live.Snapshot()); err != nil {
				t.Fatal(err)
			}
			live = fresh
		}
	}
	if ref.Snapshot() != live.Snapshot() {
		t.Fatalf("state diverged after snapshot/restore:\nref  %+v\nlive %+v", ref.Snapshot(), live.Snapshot())
	}
}

func TestRestoreRejectsNonFinite(t *testing.T) {
	s, err := NewState(DefaultThermal(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	sn.PackC = math.Inf(1)
	if err := s.Restore(sn); err == nil {
		t.Fatal("non-finite snapshot accepted")
	}
}

// TestColdSoakEquilibrium pins the physics direction: an idle pack parked
// at −20 °C relaxes toward ambient; a heated pack climbs.
func TestColdSoakEquilibrium(t *testing.T) {
	cfg := DefaultThermal()
	cfg.PackFromAmbient = false
	cfg.InitialPackC = 20
	s, _ := NewState(cfg, -20)
	for i := 0; i < 3600; i++ { // 10 h park, 10 s steps
		s.Step(-20, -20, 0, 0, 0, 10)
	}
	if s.PackC() > 0 || s.PackC() < -20 {
		t.Errorf("parked pack at %v °C, want relaxed toward −20", s.PackC())
	}
	heated, _ := NewState(cfg, -20)
	start := heated.PackC()
	for i := 0; i < 360; i++ { // 1 h with the 4 kW heater
		heated.Step(-20, -20, 0, 4000, 0, 10)
	}
	if heated.PackC() <= start {
		t.Errorf("heated pack fell from %v to %v °C", start, heated.PackC())
	}
	if heated.MinPackC() > start {
		t.Errorf("minimum pack temperature %v above the start %v °C", heated.MinPackC(), start)
	}
}
