package mat

import "math"

// Dot returns the inner product of x and y. It panics on length mismatch.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Two-pass scaling avoids overflow for large components.
	var mx float64
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		r := v / mx
		s += r * r
	}
	return mx * math.Sqrt(s)
}

// NormInf returns the maximum absolute component of x.
func NormInf(x []float64) float64 {
	var mx float64
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Axpy computes y ← a·x + y in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// AllFinite reports whether every component of x is finite.
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
