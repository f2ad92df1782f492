package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// equalApprox reports whether a and b have the same shape and agree
// elementwise to within tol.
func equalApprox(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDense(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewDense(dims[0], dims[1])
		}()
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	r, c := m.Dims()
	if r != 2 || c != 3 {
		t.Fatalf("Dims = %d,%d want 2,3", r, c)
	}
	want := [][]float64{{1, 2, 3}, {4, 5, 6}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != want[i][j] {
				t.Errorf("At(%d,%d) = %v, want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 4, 4)
	i4 := Identity(4)
	if !equalApprox(a.Mul(i4), a, 1e-14) || !equalApprox(i4.Mul(a), a, 1e-14) {
		t.Error("identity is not multiplicative identity")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !equalApprox(got, want, 0) {
		t.Errorf("Mul:\n%v\nwant\n%v", got, want)
	}
}

func TestMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape-mismatched Mul did not panic")
		}
	}()
	NewDense(2, 3).Mul(NewDense(2, 3))
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 3, 5)
	if !equalApprox(a.T().T(), a, 0) {
		t.Error("(Aᵀ)ᵀ != A")
	}
	if a.T().At(4, 2) != a.At(2, 4) {
		t.Error("transpose element mismatch")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 4, 6)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	xm := NewDense(6, 1)
	for i, v := range x {
		xm.Set(i, 0, v)
	}
	got := a.MulVec(x)
	want := a.Mul(xm)
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-13 {
			t.Errorf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestMaxAbs(t *testing.T) {
	a := FromRows([][]float64{{1, -7}, {3, 4}})
	if got := a.MaxAbs(); got != 7 {
		t.Errorf("MaxAbs = %v, want 7", got)
	}
}
