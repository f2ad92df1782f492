package units

import (
	"math"
	"testing"
	"testing/quick"
)

// approxEqual reports whether a and b agree to within tol absolutely or
// relatively (whichever is looser).
func approxEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	return a == b || diff <= tol || diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestSpeedConversionRoundTrip(t *testing.T) {
	f := func(kmh float64) bool {
		if !IsFinite(kmh) {
			return true
		}
		return approxEqual(MsToKmh(KmhToMs(kmh)), kmh, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKnownSpeedConversions(t *testing.T) {
	cases := []struct{ kmh, ms float64 }{
		{0, 0},
		{3.6, 1},
		{36, 10},
		{120, 33.3333333333333},
	}
	for _, c := range cases {
		if got := KmhToMs(c.kmh); !approxEqual(got, c.ms, 1e-9) {
			t.Errorf("KmhToMs(%v) = %v, want %v", c.kmh, got, c.ms)
		}
	}
}

func TestTemperatureConversionRoundTrip(t *testing.T) {
	f := func(c float64) bool {
		if !IsFinite(c) {
			return true
		}
		return approxEqual(CToK(c)-273.15, c, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCToKZeroCelsius(t *testing.T) {
	if got := CToK(0); got != 273.15 {
		t.Errorf("CToK(0) = %v, want 273.15", got)
	}
	if got := CToK(-273.15); got != 0 {
		t.Errorf("CToK(-273.15) = %v, want 0", got)
	}
}

func TestEnergyConversions(t *testing.T) {
	if got := JToKWh(3.6e6); got != 1 {
		t.Errorf("JToKWh(3.6e6) = %v, want 1", got)
	}
}

func TestSlopePercentToAngle(t *testing.T) {
	// 100 % slope is 45 degrees.
	if got := SlopePercentToAngle(100); !approxEqual(got, math.Pi/4, 1e-12) {
		t.Errorf("SlopePercentToAngle(100) = %v, want pi/4", got)
	}
	if got := SlopePercentToAngle(0); got != 0 {
		t.Errorf("SlopePercentToAngle(0) = %v, want 0", got)
	}
	// Small-angle behaviour: 1 % slope ~ 0.01 rad.
	if got := SlopePercentToAngle(1); !approxEqual(got, 0.0099996667, 1e-6) {
		t.Errorf("SlopePercentToAngle(1) = %v", got)
	}
	// Antisymmetric.
	if SlopePercentToAngle(-5) != -SlopePercentToAngle(5) {
		t.Error("SlopePercentToAngle is not antisymmetric")
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestClampProperty(t *testing.T) {
	f := func(v, a, b float64) bool {
		if !IsFinite(v) || !IsFinite(a) || !IsFinite(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(v, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Clamp(0, 1, -1) did not panic")
		}
	}()
	Clamp(0, 1, -1)
}

func TestLerp(t *testing.T) {
	if got := Lerp(0, 10, 0.5); got != 5 {
		t.Errorf("Lerp(0,10,0.5) = %v, want 5", got)
	}
	if got := Lerp(2, 2, 0.73); got != 2 {
		t.Errorf("Lerp(2,2,.73) = %v, want 2", got)
	}
	if got := Lerp(0, 10, 0); got != 0 {
		t.Errorf("Lerp endpoints wrong: %v", got)
	}
	if got := Lerp(0, 10, 1); got != 10 {
		t.Errorf("Lerp endpoints wrong: %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite(1.5) {
		t.Error("1.5 should be finite")
	}
	if IsFinite(math.NaN()) {
		t.Error("NaN should not be finite")
	}
	if IsFinite(math.Inf(1)) || IsFinite(math.Inf(-1)) {
		t.Error("Inf should not be finite")
	}
}
