package mat

import "math"

// LU holds an LU factorization with partial pivoting: P·A = L·U,
// where L is unit lower triangular and U is upper triangular, both packed
// into lu. It is produced by FactorizeInto.
type LU struct {
	lu  *Dense
	piv []int // row permutation: row i of the factorization came from row piv[i] of A
}

// Reserve pre-sizes the factor storage for n×n factorizations so the
// first FactorizeInto call with that size performs no allocation.
func (f *LU) Reserve(n int) {
	if f.lu == nil || f.lu.rows != n {
		f.lu = NewDense(n, n)
	}
	f.piv = growInts(f.piv, n)
}

// FactorizeInto computes the LU factorization of the square matrix a
// with partial (row) pivoting into f, reusing f's storage when the
// dimensions match (allocation-free after the first call with a given
// size). It returns ErrSingular if a pivot is exactly zero; near-singular
// systems succeed here but may produce large residuals. On error the
// contents of f are unspecified.
func FactorizeInto(f *LU, a *Dense) error {
	n, c := a.Dims()
	if n != c {
		panic(ErrShape)
	}
	if f.lu == nil || f.lu.rows != n {
		f.lu = NewDense(n, n)
	}
	f.lu.CopyFrom(a)
	f.piv = growInts(f.piv, n)
	lu, piv := f.lu, f.piv
	for i := range piv {
		piv[i] = i
	}
	d := lu.data
	for k := 0; k < n; k++ {
		// Find the pivot row.
		p := k
		mx := math.Abs(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(d[i*n+k]); a > mx {
				mx, p = a, i
			}
		}
		if mx == 0 {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				d[p*n+j], d[k*n+j] = d[k*n+j], d[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivVal := d[k*n+k]
		// Row-slice the elimination so the compiler can drop bounds
		// checks in the hot inner loop.
		rowK := d[k*n+k+1 : k*n+n]
		for i := k + 1; i < n; i++ {
			m := d[i*n+k] / pivVal
			d[i*n+k] = m
			if m == 0 {
				continue
			}
			rowI := d[i*n+k+1 : i*n+n]
			for j, rkj := range rowK {
				rowI[j] -= m * rkj
			}
		}
	}
	return nil
}

// SolveInto solves A·x = b into x using the factorization and returns x.
// b is not modified; x must not alias b.
func (f *LU) SolveInto(b, x []float64) []float64 {
	n, _ := f.lu.Dims()
	if len(b) != n || len(x) != n {
		panic(ErrShape)
	}
	d := f.lu.data
	// Apply permutation and forward-substitute through L.
	for i := 0; i < n; i++ {
		s := b[f.piv[i]]
		for j := 0; j < i; j++ {
			s -= d[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back-substitute through U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= d[i*n+j] * x[j]
		}
		x[i] = s / d[i*n+i]
	}
	return x
}
