package qp

import (
	"math"
	"math/rand"
	"testing"

	"evclimate/internal/mat"
)

// TestCholeskyKnown factors a matrix with a known integer factor.
func TestCholeskyKnown(t *testing.T) {
	l := []float64{
		4, 12, -16,
		12, 37, -43,
		-16, -43, 98,
	}
	if cholesky(l, 3, true) {
		t.Fatal("positive definite matrix reported a lost pivot")
	}
	want := [][]float64{{2}, {6, 1}, {-8, 5, 3}}
	for i, row := range want {
		for j, v := range row {
			if math.Abs(l[i*3+j]-v) > 1e-12 {
				t.Errorf("L[%d][%d] = %v, want %v", i, j, l[i*3+j], v)
			}
		}
	}
}

// TestCholeskySolveMatchesLU: the factor's two triangular solves
// reproduce an LU solve on random positive definite systems.
func TestCholeskySolveMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(15)
		g := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g.Set(i, j, rng.NormFloat64())
			}
		}
		a := g.T().Mul(g)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		l := make([]float64, n*n)
		for i := 0; i < n; i++ {
			copy(l[i*n:], a.RawRow(i))
		}
		if cholesky(l, n, true) {
			t.Fatalf("trial %d: positive definite matrix reported a lost pivot", trial)
		}
		x := make([]float64, n)
		lsolve(l, b, x)
		ltsolve(l, x, x)
		xl, err := luSolve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if math.Abs(x[i]-xl[i]) > 1e-7*(1+math.Abs(xl[i])) {
				t.Errorf("trial %d: Cholesky/LU mismatch at %d: %v vs %v", trial, i, x[i], xl[i])
			}
		}
	}
}

// TestCholeskyRejectsIndefinite: a negative pivot is reported as lost,
// while a zero pivot of a semidefinite matrix is dropped as roundoff;
// a dropped pivot becomes +Inf in the stiff form, so the solves give its
// direction no step, and zero otherwise.
func TestCholeskyRejectsIndefinite(t *testing.T) {
	l := []float64{1, 0, 0, -1}
	if !cholesky(l, 2, true) {
		t.Error("indefinite matrix: no lost pivot reported")
	}
	l = []float64{1, 1, 1, 1}
	if cholesky(l, 2, true) {
		t.Error("semidefinite matrix: its zero pivot reported as lost")
	}
	if !math.IsInf(l[3], 1) {
		t.Errorf("stiff dropped pivot = %v, want +Inf", l[3])
	}
	x := make([]float64, 2)
	lsolve(l, []float64{1, 1}, x)
	ltsolve(l, x, x)
	if x[0] != 1 || x[1] != 0 {
		t.Errorf("solve through a dropped pivot = %v, want [1 0]", x)
	}
	l = []float64{1, 1, 1, 1}
	cholesky(l, 2, false)
	if l[2] != 1 || l[3] != 0 {
		t.Errorf("non-stiff dropped pivot: factor row 1 = %v, want [1 0]", l[2:])
	}
}
