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

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// AddVec returns x + y as a new vector.
func AddVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return out
}

// SubVec returns x − y as a new vector.
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

// ScaleVec returns s·x as a new vector.
func ScaleVec(s float64, x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = s * v
	}
	return out
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

// Filled returns a vector of length n with every component set to v.
func Filled(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
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
