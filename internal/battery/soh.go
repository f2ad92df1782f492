package battery

import (
	"errors"
	"fmt"
	"math"
)

// SoHParams parameterizes the degradation model of Eq. 15:
//
//	ΔSoH = (a1·e^(α·SoCdev) + a2) · (a3·e^(β·SoCavg))
//
// with SoCdev and SoCavg in percent over one discharging/charging cycle.
// Battery temperature is treated as constant (out of the paper's scope)
// and folded into a3.
type SoHParams struct {
	// A1, A2, A3, Alpha, Beta are the fit parameters of Eq. 15.
	A1, A2, A3, Alpha, Beta float64
	// ChargeDevOffset and ChargeAvgWeight fold the fixed charging part
	// of the cycle into the stress statistics, per the paper's
	// assumption that charging has a fixed pattern modeled as constants:
	// SoCdev_cycle = SoCdev_drive + ChargeDevOffset and
	// SoCavg_cycle = SoCavg_drive (the drive dominates the average
	// weighting when the charge pattern is fixed).
	ChargeDevOffset float64
}

// DefaultSoHParams returns the calibration used in the experiments.
// It reproduces the qualitative Millner [6] behaviour — exponential
// growth of capacity fade with both cycle depth (SoCdev) and mean SoC —
// and is scaled so a typical commute cycle costs ≈ 0.01 % SoH,
// i.e. a ≈ 2000-cycle life to the 80 % end-of-life threshold.
func DefaultSoHParams() SoHParams {
	return SoHParams{
		A1:              2.5e-4,
		A2:              2.5e-4,
		A3:              1.0,
		Alpha:           0.5,
		Beta:            0.02,
		ChargeDevOffset: 1.0,
	}
}

// Validate reports invalid parameters.
func (p *SoHParams) Validate() error {
	switch {
	case p.A1 <= 0 || p.A2 < 0 || p.A3 <= 0:
		return errors.New("battery: SoH amplitudes must be positive (A2 nonnegative)")
	case p.Alpha <= 0 || p.Beta <= 0:
		return errors.New("battery: SoH exponents must be positive")
	case p.ChargeDevOffset < 0:
		return errors.New("battery: charge deviation offset must be nonnegative")
	}
	return nil
}

// DeltaSoH evaluates Eq. 15 for the drive-cycle statistics, folding in
// the fixed charging part, and returns the SoH loss in percent for one
// discharging/charging cycle.
func (p *SoHParams) DeltaSoH(socDev, socAvg float64) float64 {
	dev := socDev + p.ChargeDevOffset
	return (p.A1*math.Exp(p.Alpha*dev) + p.A2) * (p.A3 * math.Exp(p.Beta*socAvg))
}

// SoCStats accumulates the cycle stress statistics of Eqs. 16–17 online,
// one SoC sample (percent) at a time, with Welford's update: N samples,
// their running Mean, and M2, the sum of squared deviations from that
// mean. Its three fields are its whole state, so a checkpoint carries
// them and the restored accumulator continues bit for bit.
type SoCStats struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// Add folds one SoC sample into the statistics.
func (s *SoCStats) Add(soc float64) {
	s.N++
	d := soc - s.Mean
	s.Mean += d / float64(s.N)
	s.M2 += d * (soc - s.Mean)
}

// Stats returns SoCdev and SoCavg (Eqs. 16–17) over the samples added so
// far: the population standard deviation and the mean.
func (s *SoCStats) Stats() (dev, avg float64, err error) {
	if s.N < 2 {
		return 0, 0, fmt.Errorf("battery: cycle statistics need ≥ 2 SoC samples, got %d", s.N)
	}
	return math.Sqrt(s.M2 / float64(s.N)), s.Mean, nil
}

// DeltaSoH evaluates the degradation model (Eq. 15) over the statistics
// accumulated so far — Algorithm 1 line 23.
func (s *SoCStats) DeltaSoH(p *SoHParams) (float64, error) {
	dev, avg, err := s.Stats()
	if err != nil {
		return 0, err
	}
	return p.DeltaSoH(dev, avg), nil
}

// EndOfLifeFadePercent is the capacity fade at which the paper considers
// the battery useless (Sec. I / II-D).
const EndOfLifeFadePercent = 20.0

// LifetimeCycles converts a per-cycle SoH loss (percent) into the number
// of discharging/charging cycles until end of life.
func LifetimeCycles(deltaSoHPercent float64) float64 {
	if deltaSoHPercent <= 0 {
		return math.Inf(1)
	}
	return EndOfLifeFadePercent / deltaSoHPercent
}
