package mat

import (
	"math"
	"math/rand"
	"testing"
)

// bitsEqual reports whether two vectors are identical to the last bit —
// the contract the -Into variants promise relative to their allocating
// counterparts.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestIntoVariantsBitIdentical pins the -Into kernels against their
// definitions: MulVecInto against the allocating MulVec, SubVecInto and
// ScaleVecInto against the elementwise x − y and s·x.
func TestIntoVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		r := 1 + rng.Intn(15)
		c := 1 + rng.Intn(15)
		a := randomDense(rng, r, c)
		x := make([]float64, c)
		y := make([]float64, c)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}

		gv := make([]float64, r)
		a.MulVecInto(x, gv)
		if !bitsEqual(gv, a.MulVec(x)) {
			t.Fatalf("trial %d: MulVecInto differs from MulVec", trial)
		}

		s := rng.NormFloat64()
		sub, scaled := make([]float64, c), make([]float64, c)
		for i := range x {
			sub[i], scaled[i] = x[i]-y[i], s*x[i]
		}
		dst := make([]float64, c)
		if !bitsEqual(SubVecInto(dst, x, y), sub) {
			t.Fatalf("trial %d: SubVecInto differs from x − y", trial)
		}
		if !bitsEqual(ScaleVecInto(dst, s, x), scaled) {
			t.Fatalf("trial %d: ScaleVecInto differs from s·x", trial)
		}
	}
}

func TestRawRowAliasesStorage(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	row := a.RawRow(1)
	row[0] = 9
	if a.At(1, 0) != 9 {
		t.Fatal("RawRow does not alias the matrix storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RawRow out of range did not panic")
		}
	}()
	a.RawRow(2)
}
