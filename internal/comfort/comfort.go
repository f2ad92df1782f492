// Package comfort implements Fanger's Predicted Mean Vote (PMV) and
// Predicted Percentage Dissatisfied (PPD) thermal-comfort model
// (ISO 7730). The paper evaluates comfort as a fixed temperature band
// (constraint C2, comfort zone per [11]); this package is the richer
// extension: it scores a cabin-temperature trajectory by occupant
// physiology — metabolic rate, clothing insulation, air speed, and
// humidity — so controllers can be compared on predicted passenger
// satisfaction, not just band violations.
package comfort

import (
	"errors"
	"fmt"
	"math"
)

// Conditions describes the thermal environment and occupant for one PMV
// evaluation.
type Conditions struct {
	// AirTempC is the air (dry-bulb) temperature, °C.
	AirTempC float64
	// RadiantTempC is the mean radiant temperature, °C. If zero it is
	// taken equal to the air temperature.
	RadiantTempC float64
	// AirVelocityMs is the relative air speed, m/s (cabin vents:
	// ≈ 0.1–0.4).
	AirVelocityMs float64
	// RelHumidity is the relative humidity fraction in [0, 1].
	RelHumidity float64
	// MetabolicMet is the activity level in met (seated driver ≈ 1.2).
	MetabolicMet float64
	// ClothingClo is the clothing insulation in clo (summer ≈ 0.5,
	// winter ≈ 1.0).
	ClothingClo float64
}

// DriverSummer returns typical conditions for a seated driver in summer
// clothing with vents at low speed; only the cabin temperature remains to
// be filled in per sample.
func DriverSummer(airTempC float64) Conditions {
	return Conditions{
		AirTempC:      airTempC,
		AirVelocityMs: 0.15,
		RelHumidity:   0.5,
		MetabolicMet:  1.2,
		ClothingClo:   0.5,
	}
}

// Validate reports out-of-domain conditions.
func (c *Conditions) Validate() error {
	switch {
	case c.AirTempC < -40 || c.AirTempC > 60:
		return fmt.Errorf("comfort: air temperature %v outside model domain", c.AirTempC)
	case c.AirVelocityMs < 0:
		return errors.New("comfort: negative air velocity")
	case c.RelHumidity < 0 || c.RelHumidity > 1:
		return fmt.Errorf("comfort: relative humidity %v outside [0, 1]", c.RelHumidity)
	case c.MetabolicMet <= 0:
		return errors.New("comfort: metabolic rate must be positive")
	case c.ClothingClo < 0:
		return errors.New("comfort: negative clothing insulation")
	}
	return nil
}

// saturationPressurePa returns the water-vapour saturation pressure at
// temperature t (°C), per the Antoine-style fit used by ISO 7730.
func saturationPressurePa(t float64) float64 {
	return math.Exp(16.6536-4030.183/(t+235)) * 1000
}

// PMV computes the Predicted Mean Vote on the 7-point scale
// (−3 cold … 0 neutral … +3 hot), following the ISO 7730 algorithm with
// the standard iterative clothing-surface-temperature solution.
func PMV(c Conditions) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	ta := c.AirTempC
	tr := c.RadiantTempC
	if tr == 0 {
		tr = ta
	}
	vel := math.Max(c.AirVelocityMs, 0.0001)
	pa := c.RelHumidity * saturationPressurePa(ta) // vapour pressure, Pa

	icl := 0.155 * c.ClothingClo // clo → m²K/W
	m := c.MetabolicMet * 58.15  // met → W/m²
	w := 0.0                     // external work
	mw := m - w

	var fcl float64 // clothing area factor
	if icl <= 0.078 {
		fcl = 1 + 1.29*icl
	} else {
		fcl = 1.05 + 0.645*icl
	}

	// Iterate for the clothing surface temperature tcl.
	taa := ta + 273
	tra := tr + 273
	tcla := taa + (35.5-ta)/(3.5*icl+0.1) // initial guess

	p1 := icl * fcl
	p2 := p1 * 3.96
	p3 := p1 * 100
	p4 := p1 * taa
	p5 := 308.7 - 0.028*mw + p2*math.Pow(tra/100, 4)
	xn := tcla / 100
	xf := xn
	hcf := 12.1 * math.Sqrt(vel)
	const eps = 1e-5
	var hc float64
	for i := 0; ; i++ {
		xf = (xf + xn) / 2
		hcn := 2.38 * math.Pow(math.Abs(100*xf-taa), 0.25)
		if hcf > hcn {
			hc = hcf
		} else {
			hc = hcn
		}
		xn = (p5 + p4*hc - p2*math.Pow(xf, 4)) / (100 + p3*hc)
		if math.Abs(xn-xf) <= eps {
			break
		}
		if i > 150 {
			return 0, errors.New("comfort: PMV clothing-temperature iteration did not converge")
		}
	}
	tcl := 100*xn - 273

	// Heat-loss components (W/m²).
	hl1 := 3.05 * 0.001 * (5733 - 6.99*mw - pa) // skin diffusion
	hl2 := 0.0
	if mw > 58.15 {
		hl2 = 0.42 * (mw - 58.15) // sweating
	}
	hl3 := 1.7 * 0.00001 * m * (5867 - pa) // latent respiration
	hl4 := 0.0014 * m * (34 - ta)          // dry respiration
	hl5 := 3.96 * fcl * (math.Pow(xn, 4) - math.Pow(tra/100, 4))
	hl6 := fcl * hc * (tcl - ta)

	ts := 0.303*math.Exp(-0.036*m) + 0.028
	pmv := ts * (mw - hl1 - hl2 - hl3 - hl4 - hl5 - hl6)
	return pmv, nil
}

// PPD converts a PMV value to the Predicted Percentage Dissatisfied
// (5 % minimum at neutral, ISO 7730).
func PPD(pmv float64) float64 {
	return 100 - 95*math.Exp(-0.03353*math.Pow(pmv, 4)-0.2179*pmv*pmv)
}

// TraceScore summarizes a cabin-temperature trajectory.
type TraceScore struct {
	// MeanPMV and MeanPPD are time averages.
	MeanPMV, MeanPPD float64
	// WorstPMV is the PMV farthest from neutral.
	WorstPMV float64
	// DissatisfiedFrac is the fraction of samples with PPD > 10 %
	// (ISO 7730 category B).
	DissatisfiedFrac float64
}

// ScoreTrace evaluates a cabin-temperature trace with the given base
// conditions (the per-sample temperature replaces base.AirTempC).
func ScoreTrace(cabinC []float64, base Conditions) (TraceScore, error) {
	if len(cabinC) == 0 {
		return TraceScore{}, errors.New("comfort: empty trace")
	}
	var s TraceScore
	var dissatisfied int
	for _, tz := range cabinC {
		c := base
		c.AirTempC = tz
		pmv, err := PMV(c)
		if err != nil {
			return TraceScore{}, err
		}
		ppd := PPD(pmv)
		s.MeanPMV += pmv
		s.MeanPPD += ppd
		if math.Abs(pmv) > math.Abs(s.WorstPMV) {
			s.WorstPMV = pmv
		}
		if ppd > 10 {
			dissatisfied++
		}
	}
	n := float64(len(cabinC))
	s.MeanPMV /= n
	s.MeanPPD /= n
	s.DissatisfiedFrac = float64(dissatisfied) / n
	return s, nil
}
