package battery

import (
	"math"

	"evclimate/internal/units"
)

// V2G-Sim battery-degradation coefficients (SNIPPETS.md, coefLoss dict).
// The cycle/calendar loss model there couples an Arrhenius temperature
// kernel (E, R, pre-exponential f) with an SoC-level sensitivity (d) and
// a quadratic cold-side temperature polynomial (a, b, c). The literals
// are pinned verbatim by TestV2GSimCoefficients so any drift from the
// reference is a deliberate, reviewed change.
const (
	V2GSimLossA = 8.888888888889532e-6 // quadratic cold-stress coefficient, 1/°C²
	V2GSimLossB = -0.005288888888889   // linear cold-stress coefficient, 1/°C
	V2GSimLossC = 0.787113333333394    // cold-stress constant term
	V2GSimLossD = -0.0067              // SoC-level sensitivity, 1/percent
	V2GSimLossE = 2.35                 // cycle-depth exponent (documented; the
	// paper's Eq. 15 SoC-deviation exponential plays this role here)
	V2GSimLossF       = 8720.0  // calendar pre-exponential, percent/√day
	V2GSimActivationJ = 24500.0 // calendar activation energy, J/mol
	V2GSimGasConstant = 8.314   // universal gas constant, J/(mol·K)
)

// CycleStressFactor returns the multiplicative temperature acceleration
// of *cycle* aging at mean pack temperature tempC, normalized to 1 at
// the 25 °C reference. It is U-shaped: above 25 °C the existing
// Arrhenius factor applies (SEI growth accelerates with heat); below,
// the V2G-Sim quadratic a·T² + b·T + c — a lithium-plating proxy that
// rises as the electrolyte cools — normalized by its 25 °C value
// (≈ 1.36 at −20 °C). The two branches meet continuously at the
// reference, where both equal 1.
func CycleStressFactor(tempC float64) float64 {
	if tempC > ArrheniusRefC {
		return ThermalFactor(tempC)
	}
	ref := V2GSimLossA*ArrheniusRefC*ArrheniusRefC + V2GSimLossB*ArrheniusRefC + V2GSimLossC
	v := V2GSimLossA*tempC*tempC + V2GSimLossB*tempC + V2GSimLossC
	return v / ref
}

// CalendarParams defines the V2G-Sim-style calendar-aging term: capacity
// fade that accrues with storage time regardless of cycling, Arrhenius
// in pack temperature and exponential in SoC level, with the √t kernel
// standard for SEI-limited calendar loss.
//
//	Loss% = f · exp(−E/(R·T)) · exp(s·(SoC − SoCref)) · (√(age+Δt) − √age)
type CalendarParams struct {
	// PreExponential is f, in percent per √day.
	PreExponential float64
	// ActivationJMol is E and GasConstant is R in the Arrhenius kernel.
	ActivationJMol, GasConstant float64
	// SoCSlopePerPct is s: fade sensitivity to storage SoC (high SoC
	// ages faster). SoCRefPct anchors the exponential.
	SoCSlopePerPct, SoCRefPct float64
	// AgeDays is the pack age entering the √t kernel — fade per day
	// shrinks as the pack ages.
	AgeDays float64
}

// DefaultCalendarParams returns the V2G-Sim coefficient set for a
// one-year-old pack.
func DefaultCalendarParams() CalendarParams {
	return CalendarParams{
		PreExponential: V2GSimLossF,
		ActivationJMol: V2GSimActivationJ,
		GasConstant:    V2GSimGasConstant,
		SoCSlopePerPct: -V2GSimLossD, // +0.0067: high storage SoC ages faster
		SoCRefPct:      50,
		AgeDays:        365,
	}
}

// LossPercent returns the calendar capacity fade (percent of nominal)
// accrued over dtS seconds at pack temperature tempC and state of charge
// socPct.
func (p *CalendarParams) LossPercent(tempC, socPct, dtS float64) float64 {
	tK := units.CToK(tempC)
	if tK <= 0 {
		return math.Inf(1)
	}
	arr := p.PreExponential * math.Exp(-p.ActivationJMol/(p.GasConstant*tK))
	socf := math.Exp(p.SoCSlopePerPct * (socPct - p.SoCRefPct))
	dDays := dtS / units.SecondsPerDay
	return arr * socf * (math.Sqrt(p.AgeDays+dDays) - math.Sqrt(p.AgeDays))
}
