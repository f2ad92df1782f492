// Package drivecycle models drive profiles (paper Sec. II-A): discrete-time
// sampled environment data — vehicle speed, acceleration, road slope,
// ambient temperature, and solar load — that feed the power-train and HVAC
// models. It provides the standard regulatory cycles the paper evaluates on
// (NEDC, ECE, EUDC, ECE_EUDC, US06, SC03, UDDS) and a route builder for
// composing realistic GPS-style profiles from segments.
package drivecycle

import (
	"errors"
	"fmt"
	"math"

	"evclimate/internal/units"
)

// Sample is one discrete-time sample of a drive profile.
type Sample struct {
	// Time is the sample time in seconds from profile start.
	Time float64
	// Speed is the vehicle speed in m/s.
	Speed float64
	// Accel is the vehicle acceleration in m/s².
	Accel float64
	// SlopePercent is the road slope in percent (100 % = 45°).
	SlopePercent float64
	// AmbientC is the outside air temperature in °C.
	AmbientC float64
	// SolarW is the solar radiation thermal load on the cabin in watts.
	SolarW float64
	// WindMs is the headwind component along the route in m/s
	// (negative = tailwind).
	WindMs float64
}

// Profile is a uniformly sampled drive profile.
type Profile struct {
	// Name identifies the source cycle or route.
	Name string
	// Dt is the sample period in seconds.
	Dt float64
	// Samples holds the per-step environment data.
	Samples []Sample
}

// ErrEmptyProfile is returned by operations that need at least one sample.
var ErrEmptyProfile = errors.New("drivecycle: empty profile")

// Duration returns the profile length in seconds.
func (p *Profile) Duration() float64 {
	if len(p.Samples) == 0 {
		return 0
	}
	return p.Samples[len(p.Samples)-1].Time
}

// Len returns the number of samples.
func (p *Profile) Len() int { return len(p.Samples) }

// At returns the sample whose interval contains time t, with linear
// interpolation of speed; t is clamped to the profile span.
func (p *Profile) At(t float64) Sample {
	if len(p.Samples) == 0 {
		return Sample{}
	}
	a, b, w := p.bracket(t)
	if a == b {
		return *a
	}
	return Sample{
		Time:         t,
		Speed:        units.Lerp(a.Speed, b.Speed, w),
		Accel:        a.Accel,
		SlopePercent: units.Lerp(a.SlopePercent, b.SlopePercent, w),
		AmbientC:     units.Lerp(a.AmbientC, b.AmbientC, w),
		SolarW:       units.Lerp(a.SolarW, b.SolarW, w),
		WindMs:       units.Lerp(a.WindMs, b.WindMs, w),
	}
}

// EnvAt returns the ambient temperature and solar load that At(t) would
// report, without interpolating the four fields the plant's thermal ODE
// never reads or materializing a Sample. The arithmetic is the same
// per-field Lerp over the same bracketing pair, so the returned values
// are bit-identical to At(t).AmbientC / At(t).SolarW.
func (p *Profile) EnvAt(t float64) (ambientC, solarW float64) {
	if len(p.Samples) == 0 {
		return 0, 0
	}
	a, b, w := p.bracket(t)
	if a == b {
		return a.AmbientC, a.SolarW
	}
	return units.Lerp(a.AmbientC, b.AmbientC, w), units.Lerp(a.SolarW, b.SolarW, w)
}

// bracket locates t in a non-empty profile: it returns the samples a and
// b whose interval contains t and the interpolation weight between them.
// A t outside the span returns its clamping endpoint as both a and b.
func (p *Profile) bracket(t float64) (a, b *Sample, w float64) {
	s := p.Samples
	last := len(s) - 1
	if t <= s[0].Time {
		return &s[0], &s[0], 0
	}
	if t >= s[last].Time {
		return &s[last], &s[last], 0
	}
	idx := int(math.Floor((t - s[0].Time) / p.Dt))
	if idx >= last {
		idx = last - 1
	}
	a, b = &s[idx], &s[idx+1]
	if t < a.Time || t > b.Time {
		// Non-uniform spacing fallback: scan.
		for i := 0; i < last; i++ {
			if s[i].Time <= t && t <= s[i+1].Time {
				a, b = &s[i], &s[i+1]
				break
			}
		}
	}
	return a, b, (t - a.Time) / (b.Time - a.Time)
}

// ConstantEnv reports whether the ambient temperature and solar load are
// the same in every sample, and if so returns them. Sweep environments
// are built with WithAmbient/WithSolar, which write one value into every
// sample, so detecting that once per run turns the per-sub-step EnvAt of
// the plant ODE's right-hand side into two loads. Lerp(c, c, w) =
// c + (c−c)·w = c for finite c, so the constant values are the bits
// EnvAt would return.
func (p *Profile) ConstantEnv() (ambientC, solarW float64, ok bool) {
	if len(p.Samples) == 0 {
		return 0, 0, false
	}
	ambientC, solarW = p.Samples[0].AmbientC, p.Samples[0].SolarW
	for i := range p.Samples {
		if p.Samples[i].AmbientC != ambientC || p.Samples[i].SolarW != solarW {
			return 0, 0, false
		}
	}
	return ambientC, solarW, true
}

// Stats summarizes a profile.
type Stats struct {
	// Duration is the total time in seconds.
	Duration float64
	// DistanceKm is the integrated distance in kilometers.
	DistanceKm float64
	// AvgSpeedKmh includes idle time.
	AvgSpeedKmh float64
	// MaxSpeedKmh is the peak speed.
	MaxSpeedKmh float64
	// MaxAccel and MaxDecel are the acceleration extremes in m/s².
	MaxAccel, MaxDecel float64
	// Stops counts transitions from motion to standstill.
	Stops int
	// IdleFraction is the fraction of samples at standstill.
	IdleFraction float64
}

// Stats computes summary statistics over the profile.
func (p *Profile) Stats() Stats {
	var s Stats
	if len(p.Samples) == 0 {
		return s
	}
	s.Duration = p.Duration()
	var dist float64
	idle := 0
	moving := false
	for i, smp := range p.Samples {
		if i > 0 {
			dt := smp.Time - p.Samples[i-1].Time
			dist += (smp.Speed + p.Samples[i-1].Speed) / 2 * dt
		}
		if kmh := units.MsToKmh(smp.Speed); kmh > s.MaxSpeedKmh {
			s.MaxSpeedKmh = kmh
		}
		if smp.Accel > s.MaxAccel {
			s.MaxAccel = smp.Accel
		}
		if smp.Accel < s.MaxDecel {
			s.MaxDecel = smp.Accel
		}
		still := smp.Speed < 0.05
		if still {
			idle++
			if moving {
				s.Stops++
			}
		}
		moving = !still
	}
	s.DistanceKm = dist / 1000
	if s.Duration > 0 {
		s.AvgSpeedKmh = units.MsToKmh(dist / s.Duration)
	}
	s.IdleFraction = float64(idle) / float64(len(p.Samples))
	return s
}

// Clone returns a deep copy of the profile.
func (p *Profile) Clone() *Profile {
	out := &Profile{Name: p.Name, Dt: p.Dt, Samples: make([]Sample, len(p.Samples))}
	copy(out.Samples, p.Samples)
	return out
}

// WithAmbient returns a copy with a constant ambient temperature (°C).
func (p *Profile) WithAmbient(tempC float64) *Profile {
	out := p.Clone()
	for i := range out.Samples {
		out.Samples[i].AmbientC = tempC
	}
	return out
}

// WithEnv returns a copy with a constant ambient temperature (°C) and a
// constant solar thermal load (W) — one clone where chaining
// WithAmbient and WithSolar would copy the samples twice. Sweep
// expansion builds one such profile per cycle/environment pair.
func (p *Profile) WithEnv(tempC, solarW float64) *Profile {
	out := p.Clone()
	for i := range out.Samples {
		out.Samples[i].AmbientC = tempC
		out.Samples[i].SolarW = solarW
	}
	return out
}

// WithSolar returns a copy with a constant solar thermal load (W). The
// paper treats solar radiation as a constant thermal-load offset during a
// drive (Sec. II-C).
func (p *Profile) WithSolar(watts float64) *Profile {
	out := p.Clone()
	for i := range out.Samples {
		out.Samples[i].SolarW = watts
	}
	return out
}

// WithAmbientFunc returns a copy whose ambient temperature at each sample
// is temp(t) in °C.
func (p *Profile) WithAmbientFunc(temp func(t float64) float64) *Profile {
	out := p.Clone()
	for i := range out.Samples {
		out.Samples[i].AmbientC = temp(out.Samples[i].Time)
	}
	return out
}

// Truncate returns the profile limited to maxS seconds; maxS ≤ 0 (or a
// bound past the end) keeps the full profile. The receiver is returned
// unchanged when no truncation is needed.
func (p *Profile) Truncate(maxS float64) *Profile {
	if maxS <= 0 || p.Duration() <= maxS {
		return p
	}
	out := &Profile{Name: p.Name, Dt: p.Dt}
	for _, s := range p.Samples {
		if s.Time > maxS {
			break
		}
		out.Samples = append(out.Samples, s)
	}
	return out
}

// Validate checks structural invariants: positive Dt, monotone time,
// nonnegative speed, finite values.
func (p *Profile) Validate() error {
	if len(p.Samples) == 0 {
		return ErrEmptyProfile
	}
	if p.Dt <= 0 {
		return fmt.Errorf("drivecycle: profile %q has non-positive Dt %v", p.Name, p.Dt)
	}
	prev := math.Inf(-1)
	for i, s := range p.Samples {
		if s.Time <= prev {
			return fmt.Errorf("drivecycle: profile %q sample %d: time %v not increasing", p.Name, i, s.Time)
		}
		prev = s.Time
		if s.Speed < 0 {
			return fmt.Errorf("drivecycle: profile %q sample %d: negative speed %v", p.Name, i, s.Speed)
		}
		for _, v := range []float64{s.Speed, s.Accel, s.SlopePercent, s.AmbientC, s.SolarW, s.WindMs} {
			if !units.IsFinite(v) {
				return fmt.Errorf("drivecycle: profile %q sample %d: non-finite value", p.Name, i)
			}
		}
	}
	return nil
}
