package battery

import (
	"math"

	"evclimate/internal/units"
)

// The paper treats battery temperature as constant and folds it into the
// SoH model's a3 coefficient ("Consideration of the battery temperature
// for estimating ΔSoH is out of the scope of the paper", Sec. II-D).
// This file holds the hot-side extension: an Arrhenius acceleration
// factor for ΔSoH at the cycle's mean pack temperature. The cold-climate
// plant tracks that temperature with the coupled network in
// internal/thermal, and CycleStressFactor (calendar.go) builds on this
// factor for its above-reference branch.

// ArrheniusRefC is the reference temperature at which the thermal factor
// is 1 — the constant temperature the paper's calibration assumes.
const ArrheniusRefC = 25.0

// ArrheniusActivationK is Ea/R for Li-ion capacity fade (≈ 4 500 K,
// i.e. fade roughly doubles per ~13 °C near room temperature).
const ArrheniusActivationK = 4500.0

// ThermalFactor returns the multiplicative acceleration of ΔSoH at pack
// temperature tempC relative to the 25 °C reference.
func ThermalFactor(tempC float64) float64 {
	tRef := units.CToK(ArrheniusRefC)
	t := units.CToK(tempC)
	if t <= 0 {
		return math.Inf(1)
	}
	return math.Exp(ArrheniusActivationK * (1/tRef - 1/t))
}
