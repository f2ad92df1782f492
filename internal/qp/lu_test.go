package qp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"evclimate/internal/mat"
)

// errSingular reports an exactly zero pivot in denseLU.factorize.
var errSingular = errors.New("qp: LU of a singular matrix")

// denseLU is the tests' dense reference solver, sharing no code with the
// stage recursion: an LU factorization with partial pivoting, P·A = L·U,
// with L unit lower triangular and U upper triangular packed row-major
// into lu. factorize reuses the storage for an equal size, so a warm
// factorize/solve cycle allocates nothing.
type denseLU struct {
	n   int
	lu  []float64
	piv []int // row i of the factorization came from row piv[i] of A
}

// factorize computes the LU factorization of the square matrix a. It
// returns errSingular if a pivot is exactly zero; near-singular systems
// succeed but may give large residuals.
func (f *denseLU) factorize(a *mat.Dense) error {
	n, c := a.Dims()
	if n != c {
		panic(mat.ErrShape)
	}
	if f.n != n {
		f.n, f.lu, f.piv = n, make([]float64, n*n), make([]int, n)
	}
	d, piv := f.lu, f.piv
	for i := range piv {
		piv[i] = i
		copy(d[i*n:(i+1)*n], a.RawRow(i))
	}
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
			return errSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				d[p*n+j], d[k*n+j] = d[k*n+j], d[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivVal := d[k*n+k]
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

// solveInto solves A·x = b into x using the factorization and returns x.
// x must not alias b.
func (f *denseLU) solveInto(b, x []float64) []float64 {
	n, d := f.n, f.lu
	// Apply the permutation and forward-substitute through L.
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

// luSolve solves a·x = b through a fresh factorization.
func luSolve(a *mat.Dense, b []float64) ([]float64, error) {
	var f denseLU
	if err := f.factorize(a); err != nil {
		return nil, err
	}
	return f.solveInto(b, make([]float64, len(b))), nil
}

func randomDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestLUSolveKnown(t *testing.T) {
	a := mat.FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := luSolve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLUSolveRandomResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		a := randomDense(rng, n, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := luSolve(a, b)
		if err != nil {
			continue // random singular matrix: astronomically unlikely but legal
		}
		r := mat.SubVecInto(make([]float64, n), a.MulVec(x), b)
		if mat.Norm2(r) > 1e-8*(1+mat.Norm2(b)) {
			t.Errorf("trial %d: residual %v too large", trial, mat.Norm2(r))
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := mat.FromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := luSolve(a, []float64{1, 1}); err != errSingular {
		t.Errorf("LU of a singular matrix: err = %v, want errSingular", err)
	}
}

// TestLUFactorizeSolveIntoNoAllocs: once the factor storage is sized, the
// factorize/solve cycle performs zero allocations.
func TestLUFactorizeSolveIntoNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 24
	g := randomDense(rng, n, n)
	a := g.T().Mul(g)
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
	}
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var lu denseLU
	if err := lu.factorize(a); err != nil { // size the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := lu.factorize(a); err != nil {
			t.Fatal(err)
		}
		lu.solveInto(b, x)
	})
	if allocs != 0 {
		t.Fatalf("warm LU factorize+solveInto allocates %v objects/op, want 0", allocs)
	}
}
