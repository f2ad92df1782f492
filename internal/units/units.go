// Package units collects physical constants, unit conversions, and small
// numeric helpers shared by the vehicle, cabin, and battery models.
//
// All models in this repository work in SI units internally:
// meters, seconds, kilograms, watts, joules, kelvin-sized degrees Celsius.
// The helpers here exist so that model code never embeds magic conversion
// factors inline.
package units

import "math"

// Physical constants.
const (
	// Gravity is the standard gravitational acceleration in m/s².
	Gravity = 9.80665

	// AirDensity is the density of air at sea level and 20 °C in kg/m³.
	AirDensity = 1.204

	// AirCp is the specific heat capacity of dry air at constant
	// pressure in J/(kg·K).
	AirCp = 1005.0

	// SecondsPerHour converts hours to seconds.
	SecondsPerHour = 3600.0

	// SecondsPerDay converts days to seconds (calendar-aging kernels).
	SecondsPerDay = 86400.0
)

// KmhToMs converts a speed in km/h to m/s.
func KmhToMs(kmh float64) float64 { return kmh / 3.6 }

// MsToKmh converts a speed in m/s to km/h.
func MsToKmh(ms float64) float64 { return ms * 3.6 }

// CToK converts degrees Celsius to kelvin.
func CToK(c float64) float64 { return c + 273.15 }

// JToKWh converts joules to kilowatt-hours.
func JToKWh(j float64) float64 { return j / (1000 * SecondsPerHour) }

// SlopePercentToAngle converts a road slope expressed as a percentage
// (100 % == 45°) to the corresponding angle in radians, following Eq. 3
// of the paper: angle = arctan(slope/100).
func SlopePercentToAngle(percent float64) float64 {
	return math.Atan(percent / 100)
}

// Clamp limits v to the closed interval [lo, hi]. It panics if lo > hi.
func Clamp(v, lo, hi float64) float64 {
	if lo > hi {
		panic("units: Clamp called with lo > hi")
	}
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

// Lerp linearly interpolates between a and b with parameter t in [0, 1].
// t outside [0, 1] extrapolates.
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

// IsFinite reports whether v is neither NaN nor ±Inf.
func IsFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
