// Package battery implements the lithium-ion battery model of paper
// Sec. II-D: Peukert rate-capacity SoC accounting (Eqs. 13–14) and the
// SoH (State-of-Health) degradation model driven by SoC deviation and SoC
// average over a discharging/charging cycle (Eqs. 15–17, after Millner
// [6]). SoC and SoH are expressed in percent throughout, as in the paper.
package battery

import (
	"errors"
	"fmt"
	"math"

	"evclimate/internal/units"
)

// Params defines a battery pack.
type Params struct {
	// NominalCapacityAh is C_n, measured at the nominal current.
	NominalCapacityAh float64
	// NominalCurrentA is I_n, the manufacturer's rated current.
	NominalCurrentA float64
	// NominalVoltageV is the pack voltage used to convert power to
	// current.
	NominalVoltageV float64
	// PeukertConst is p_c in Eq. 14 (≈ 1.05–1.2 for Li-ion).
	PeukertConst float64
	// ChargeEfficiency scales current during charging (regeneration);
	// the rate-capacity effect applies to discharge only.
	ChargeEfficiency float64
}

// LeafPack returns the 24 kWh Nissan Leaf pack: 360 V nominal, 66.2 Ah.
func LeafPack() Params {
	return Params{
		NominalCapacityAh: 66.2,
		NominalCurrentA:   22, // C/3 rating
		NominalVoltageV:   360,
		PeukertConst:      1.1,
		ChargeEfficiency:  0.95,
	}
}

// Validate reports invalid parameters.
func (p *Params) Validate() error {
	switch {
	case p.NominalCapacityAh <= 0:
		return errors.New("battery: nominal capacity must be positive")
	case p.NominalCurrentA <= 0:
		return errors.New("battery: nominal current must be positive")
	case p.NominalVoltageV <= 0:
		return errors.New("battery: nominal voltage must be positive")
	case p.PeukertConst < 1:
		return fmt.Errorf("battery: Peukert constant %v must be ≥ 1", p.PeukertConst)
	case p.ChargeEfficiency <= 0 || p.ChargeEfficiency > 1:
		return errors.New("battery: charge efficiency must be in (0, 1]")
	}
	return nil
}

// EnergyKWh returns the nominal pack energy.
func (p Params) EnergyKWh() float64 {
	return p.NominalCapacityAh * p.NominalVoltageV / 1000
}

// Pack tracks the SoC of one battery pack during a drive.
type Pack struct {
	p   Params
	soc float64 // percent
}

// NewPack creates a pack at the given initial SoC (percent).
func NewPack(p Params, initialSoC float64) (*Pack, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if initialSoC < 0 || initialSoC > 100 {
		return nil, fmt.Errorf("battery: initial SoC %v outside [0, 100]", initialSoC)
	}
	return &Pack{p: p, soc: initialSoC}, nil
}

// SoC returns the state of charge in percent.
func (pk *Pack) SoC() float64 { return pk.soc }

// Current converts an electrical power draw (W, positive = discharge)
// into pack current (A).
func (pk *Pack) Current(powerW float64) float64 {
	return powerW / pk.p.NominalVoltageV
}

// EffectiveCurrent applies Peukert's law (Eq. 14):
// I_eff = I·(I/I_n)^(p_c − 1) for discharge. Charging current passes
// through scaled by the charge efficiency.
func (pk *Pack) EffectiveCurrent(i float64) float64 {
	if i <= 0 {
		return i * pk.p.ChargeEfficiency
	}
	return i * math.Pow(i/pk.p.NominalCurrentA, pk.p.PeukertConst-1)
}

// Step drains (or charges) the pack with electrical power powerW for dt
// seconds, updating SoC per Eq. 13, and returns the new SoC. SoC is
// clamped to [0, 100]; hitting either rail is the BMS's concern.
func (pk *Pack) Step(powerW, dt float64) float64 {
	ieff := pk.EffectiveCurrent(pk.Current(powerW))
	pk.soc -= 100 * ieff * dt / (units.SecondsPerHour * pk.p.NominalCapacityAh)
	pk.soc = units.Clamp(pk.soc, 0, 100)
	return pk.soc
}
