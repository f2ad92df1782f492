package mat

import (
	"math"
	"math/rand"
	"testing"
)

// luSolve is the tests' dense LU oracle: a fresh factorization and
// solve through the allocation-free API the solvers use.
func luSolve(a *Dense, b []float64) ([]float64, error) {
	var f LU
	if err := FactorizeInto(&f, a); err != nil {
		return nil, err
	}
	return f.SolveInto(b, make([]float64, len(b))), nil
}

func TestLUSolveKnown(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := luSolve(a, b)
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
		r := SubVec(a.MulVec(x), b)
		if Norm2(r) > 1e-8*(1+Norm2(b)) {
			t.Errorf("trial %d: residual %v too large", trial, Norm2(r))
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := luSolve(a, []float64{1, 1}); err != ErrSingular {
		t.Errorf("FactorizeInto on singular matrix: err = %v, want ErrSingular", err)
	}
}

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
	if got := AddVec(x, y); got[2] != 9 {
		t.Errorf("AddVec = %v", got)
	}
	if got := SubVec(y, x); got[0] != 3 {
		t.Errorf("SubVec = %v", got)
	}
	if got := ScaleVec(2, x); got[1] != 4 {
		t.Errorf("ScaleVec = %v", got)
	}
	z := CloneVec(x)
	Axpy(10, y, z)
	if z[0] != 41 || z[2] != 63 {
		t.Errorf("Axpy = %v", z)
	}
	if f := Filled(3, 2.5); f[0] != 2.5 || len(f) != 3 {
		t.Errorf("Filled = %v", f)
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
