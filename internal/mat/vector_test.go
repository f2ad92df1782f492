package mat

import (
	"math"
	"testing"
)

func TestVectorOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := NormInf([]float64{-7, 3}); got != 7 {
		t.Errorf("NormInf = %v, want 7", got)
	}
	z := []float64{1, 2, 3}
	Axpy(10, y, z)
	if z[0] != 41 || z[2] != 63 {
		t.Errorf("Axpy = %v", z)
	}
	if !AllFinite(x) {
		t.Error("AllFinite false negative")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Error("AllFinite missed NaN")
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Components near sqrt(MaxFloat64) must not overflow in Norm2.
	big := 1e200
	if got := Norm2([]float64{big, big}); math.IsInf(got, 0) {
		t.Error("Norm2 overflowed")
	} else if math.Abs(got-big*math.Sqrt2) > 1e186 {
		t.Errorf("Norm2 = %v", got)
	}
}
