package thermal

import (
	"fmt"
	"math"
)

// State is the mutable thermal-network state: the two dynamic node
// temperatures plus the accumulators (pack statistics and the energy
// ledger). Cabin and ambient temperatures are exogenous inputs to Step —
// the cabin has its own ODE in internal/cabin, and ambient is the
// scenario boundary condition.
type State struct {
	net NetworkParams
	hp  HeatPumpParams

	packC    float64
	coolantC float64

	packTimeIntegral float64
	elapsedS         float64
	packMinC         float64

	// Energy ledger: boundaryJ integrates every heat flow crossing the
	// network boundary (Joule heat, heater/chiller branch heat, cabin and
	// ambient conduction) with exactly the fluxes the explicit-Euler
	// update uses, so stored-enthalpy change minus boundaryJ is zero to
	// roundoff — the conservation property the tests pin.
	boundaryJ  float64
	storedRefJ float64
}

// NewState validates the configuration and initializes the network with
// the pack (and coolant loop) at the configured initial temperature, or
// soaked at ambientC when PackFromAmbient is set.
func NewState(cfg Config, ambientC float64) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t0 := cfg.InitialPackC
	if cfg.PackFromAmbient {
		t0 = ambientC
	}
	s := &State{net: cfg.Network, hp: cfg.HeatPump, packC: t0, coolantC: t0, packMinC: t0}
	s.storedRefJ = s.storedJ()
	return s, nil
}

// storedJ returns the network's stored enthalpy relative to 0 °C.
func (s *State) storedJ() float64 {
	return s.net.PackHeatCapJK*s.packC + s.net.CoolantHeatCapJK*s.coolantC
}

// Flows reports one step's heat and electrical flows in watts, sign
// conventions as named (PackToCabinW > 0 means the pack heats the cabin).
type Flows struct {
	PackJouleW        float64
	PackToCabinW      float64
	PackToAmbientW    float64
	PackToCoolantW    float64
	CoolantToAmbientW float64
	// HeaterHeatW is heat delivered into the pack by the electric
	// heater; ChillerHeatW is heat pumped out of the pack by the chiller.
	HeaterHeatW, ChillerHeatW float64
	// HeaterElecW and ChillerElecW are the clamped electrical draws.
	HeaterElecW, ChillerElecW float64
}

// Step advances the network by dt seconds under the given cabin and
// ambient temperatures, pack Joule heat (I²·R, W), and battery
// heater/chiller electrical commands (W, clamped to the configured
// limits). It uses a single explicit-Euler step — the pack time constant
// (≈ C/ΣUA ~ hours) is far above any control period used here.
func (s *State) Step(cabinC, ambientC, jouleW, heaterElecW, chillerElecW, dt float64) Flows {
	bh := math.Min(math.Max(heaterElecW, 0), s.net.MaxHeaterW)
	bc := math.Min(math.Max(chillerElecW, 0), s.net.MaxChillerW)

	f := Flows{
		PackJouleW:        jouleW,
		PackToCabinW:      s.net.UAPackCabinWK * (s.packC - cabinC),
		PackToAmbientW:    s.net.UAPackAmbientWK * (s.packC - ambientC),
		PackToCoolantW:    s.net.UAPackCoolantWK * (s.packC - s.coolantC),
		CoolantToAmbientW: s.net.UACoolantAmbientWK * (s.coolantC - ambientC),
		HeaterHeatW:       s.net.HeaterEff * bh,
		ChillerHeatW:      s.net.ChillerCOP * bc,
		HeaterElecW:       bh,
		ChillerElecW:      bc,
	}

	qPack := jouleW + f.HeaterHeatW - f.ChillerHeatW - f.PackToCabinW - f.PackToAmbientW - f.PackToCoolantW
	qCool := f.PackToCoolantW - f.CoolantToAmbientW
	s.packC += qPack * dt / s.net.PackHeatCapJK
	s.coolantC += qCool * dt / s.net.CoolantHeatCapJK

	// Boundary heat: everything except the internal pack↔coolant flow,
	// which cancels between the two node updates.
	s.boundaryJ += (jouleW + f.HeaterHeatW - f.ChillerHeatW - f.PackToCabinW - f.PackToAmbientW - f.CoolantToAmbientW) * dt

	s.packTimeIntegral += s.packC * dt
	s.elapsedS += dt
	if s.packC < s.packMinC {
		s.packMinC = s.packC
	}
	return f
}

// PackC returns the current pack temperature.
func (s *State) PackC() float64 { return s.packC }

// MinPackC returns the lowest pack temperature so far.
func (s *State) MinPackC() float64 { return s.packMinC }

// MeanPackC returns the time-averaged pack temperature (the initial
// temperature before any step).
func (s *State) MeanPackC() float64 {
	if s.elapsedS == 0 {
		return s.packC
	}
	return s.packTimeIntegral / s.elapsedS
}

// PackResistanceOhm returns the pack DC resistance at the current pack
// temperature.
func (s *State) PackResistanceOhm() float64 { return s.net.PackResistanceOhm(s.packC) }

// Heating returns the HVAC heating conversion factor and PTC mode at the
// given ambient (delegates to the heat-pump curve).
func (s *State) Heating(ambientC float64) (eff float64, ptc bool) { return s.hp.Heating(ambientC) }

// EnergyDefectJ returns stored-enthalpy change minus integrated boundary
// heat — identically zero in exact arithmetic, and within a few ULPs of
// the ledger magnitude in floating point (the conservation invariant).
func (s *State) EnergyDefectJ() float64 {
	return (s.storedJ() - s.storedRefJ) - s.boundaryJ
}

// Snapshot is the serializable mutable state of the network: everything
// Step touches. Parameters are not captured — a snapshot restores into a
// State built from the same Config, after which Step continues
// bit-for-bit.
type Snapshot struct {
	PackC            float64 `json:"pack_c"`
	CoolantC         float64 `json:"coolant_c"`
	PackTimeIntegral float64 `json:"pack_time_integral"`
	ElapsedS         float64 `json:"elapsed_s"`
	PackMinC         float64 `json:"pack_min_c"`
	BoundaryJ        float64 `json:"boundary_j"`
	StoredRefJ       float64 `json:"stored_ref_j"`
}

// Snapshot captures the network state for checkpointing.
func (s *State) Snapshot() Snapshot {
	return Snapshot{
		PackC: s.packC, CoolantC: s.coolantC,
		PackTimeIntegral: s.packTimeIntegral, ElapsedS: s.elapsedS,
		PackMinC: s.packMinC, BoundaryJ: s.boundaryJ, StoredRefJ: s.storedRefJ,
	}
}

// Restore replaces the mutable state with a snapshot. Non-finite node
// temperatures are rejected (a corrupt checkpoint must not poison the
// co-simulation).
func (s *State) Restore(sn Snapshot) error {
	for _, v := range []float64{sn.PackC, sn.CoolantC} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("thermal: snapshot node temperature %v is not finite", v)
		}
	}
	s.packC, s.coolantC = sn.PackC, sn.CoolantC
	s.packTimeIntegral, s.elapsedS = sn.PackTimeIntegral, sn.ElapsedS
	s.packMinC = sn.PackMinC
	s.boundaryJ, s.storedRefJ = sn.BoundaryJ, sn.StoredRefJ
	return nil
}
