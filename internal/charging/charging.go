// Package charging models the charging half of the battery's
// discharging/charging cycle. The paper assumes the charging part has a
// fixed pattern and folds its effect on SoCdev and SoCavg into constants
// (Sec. II-D); this package implements the standard CC-CV (constant
// current, constant voltage) charger so that assumption can be *computed*:
// simulate the recharge, concatenate it with a drive's SoC trace, and
// compare the resulting cycle statistics against the fixed offsets in
// battery.SoHParams.
package charging

import (
	"errors"
	"fmt"
	"math"

	"evclimate/internal/battery"
	"evclimate/internal/units"
)

// Params defines a CC-CV charger.
type Params struct {
	// MaxCurrentA is the constant-current phase current (e.g. 0.5 C).
	MaxCurrentA float64
	// CVThresholdSoC is the SoC (percent) where the charger transitions
	// from constant current to the taper phase.
	CVThresholdSoC float64
	// TaperTimeConstS shapes the exponential current taper in the CV
	// phase.
	TaperTimeConstS float64
	// Efficiency is the wall-to-pack energy efficiency.
	Efficiency float64
	// TerminationC is the current (as a fraction of MaxCurrentA) at
	// which charging stops.
	TerminationFrac float64
}

// Level2 returns a typical 6.6 kW home charger for the Leaf pack
// (≈ 18 A pack-side at 360 V).
func Level2() Params {
	return Params{
		MaxCurrentA:     18,
		CVThresholdSoC:  85,
		TaperTimeConstS: 1800,
		Efficiency:      0.9,
		TerminationFrac: 0.05,
	}
}

// Validate reports invalid parameters.
func (p *Params) Validate() error {
	switch {
	case p.MaxCurrentA <= 0:
		return errors.New("charging: max current must be positive")
	case p.CVThresholdSoC <= 0 || p.CVThresholdSoC > 100:
		return fmt.Errorf("charging: CV threshold %v outside (0, 100]", p.CVThresholdSoC)
	case p.TaperTimeConstS <= 0:
		return errors.New("charging: taper time constant must be positive")
	case p.Efficiency <= 0 || p.Efficiency > 1:
		return errors.New("charging: efficiency must be in (0, 1]")
	case p.TerminationFrac <= 0 || p.TerminationFrac >= 1:
		return errors.New("charging: termination fraction must be in (0, 1)")
	}
	return nil
}

// Result summarizes one charge session.
type Result struct {
	// SoCTrace is the SoC trajectory at the sample period Dt, starting
	// at the initial SoC.
	SoCTrace []float64
	// Dt is the trace sample period in seconds.
	Dt float64
	// DurationS is the total charge time.
	DurationS float64
	// WallEnergyKWh is the energy drawn from the grid.
	WallEnergyKWh float64
	// FinalSoC is the SoC at termination.
	FinalSoC float64
}

// Charge simulates recharging a pack from fromSoC to toSoC (percent) with
// the CC-CV profile, sampling the SoC trace at dt seconds. The session
// ends when toSoC is reached or the taper current drops below the
// termination threshold.
func Charge(p Params, pack battery.Params, fromSoC, toSoC, dt float64) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := pack.Validate(); err != nil {
		return nil, err
	}
	if fromSoC < 0 || toSoC > 100 || fromSoC >= toSoC {
		return nil, fmt.Errorf("charging: SoC window [%v, %v] invalid", fromSoC, toSoC)
	}
	if dt <= 0 {
		return nil, fmt.Errorf("charging: dt %v must be positive", dt)
	}

	soc := fromSoC
	res := &Result{Dt: dt, SoCTrace: []float64{soc}}
	var wallJ float64
	var cvElapsed float64
	// Hard cap on the session length (48 h) to bound pathological
	// parameter combinations.
	maxSteps := int(48 * 3600 / dt)
	for step := 0; step < maxSteps && soc < toSoC; step++ {
		i := p.MaxCurrentA
		if soc >= p.CVThresholdSoC {
			i = p.MaxCurrentA * math.Exp(-cvElapsed/p.TaperTimeConstS)
			cvElapsed += dt
			if i < p.TerminationFrac*p.MaxCurrentA {
				break
			}
		}
		// SoC bookkeeping (charging side of Eq. 13; no rate-capacity
		// effect on charge).
		soc += 100 * i * dt / (units.SecondsPerHour * pack.NominalCapacityAh)
		if soc > toSoC {
			soc = toSoC
		}
		wallJ += i * pack.NominalVoltageV * dt / p.Efficiency
		res.SoCTrace = append(res.SoCTrace, soc)
		res.DurationS += dt
	}
	res.WallEnergyKWh = units.JToKWh(wallJ)
	res.FinalSoC = soc
	return res, nil
}
