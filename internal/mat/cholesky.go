package mat

import "math"

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ.
type Cholesky struct {
	l *Dense
}

// Reserve pre-sizes the factor storage for n×n factorizations so the
// first CholeskyFactorizeInto call with that size performs no allocation.
func (c *Cholesky) Reserve(n int) {
	if c.l == nil || c.l.rows != n {
		c.l = NewDense(n, n)
	}
}

// CholeskyFactorizeInto computes the Cholesky factorization of the
// symmetric positive definite matrix a into ch, reusing ch's storage when
// the dimensions match (allocation-free after the first call with a
// given size). Only the lower triangle of a is read. It returns ErrNotSPD
// if a pivot is non-positive; on error the contents of ch are
// unspecified.
func CholeskyFactorizeInto(ch *Cholesky, a *Dense) error {
	n, c := a.Dims()
	if n != c {
		panic(ErrShape)
	}
	if ch.l == nil || ch.l.rows != n {
		ch.l = NewDense(n, n)
	} else {
		ch.l.Zero()
	}
	l := ch.l
	ad, ld := a.data, l.data
	for j := 0; j < n; j++ {
		var diag float64
		for k := 0; k < j; k++ {
			diag += ld[j*n+k] * ld[j*n+k]
		}
		diag = ad[j*n+j] - diag
		if diag <= 0 || math.IsNaN(diag) {
			return ErrNotSPD
		}
		ljj := math.Sqrt(diag)
		ld[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			var s float64
			for k := 0; k < j; k++ {
				s += ld[i*n+k] * ld[j*n+k]
			}
			ld[i*n+j] = (ad[i*n+j] - s) / ljj
		}
	}
	return nil
}

// SolveInto solves A·x = b into x using the factorization and returns x.
// The forward substitution runs in place in x, so no intermediate buffer
// is needed. b is not modified; x must not alias b.
func (c *Cholesky) SolveInto(b, x []float64) []float64 {
	n, _ := c.l.Dims()
	if len(b) != n || len(x) != n {
		panic(ErrShape)
	}
	ld := c.l.data
	// Forward substitution L·y = b, y stored in x.
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= ld[i*n+j] * x[j]
		}
		x[i] = s / ld[i*n+i]
	}
	// Backward substitution Lᵀ·x = y, in place: position i only reads
	// positions j > i, which already hold final values.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ld[j*n+i] * x[j]
		}
		x[i] = s / ld[i*n+i]
	}
	return x
}
