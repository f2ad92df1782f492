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

func TestIntoVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		r := 1 + rng.Intn(15)
		c := 1 + rng.Intn(15)
		k := 1 + rng.Intn(15)
		a := randomDense(rng, r, c)
		b := randomDense(rng, c, k)
		x := make([]float64, c)
		xr := make([]float64, r)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range xr {
			xr[i] = rng.NormFloat64()
		}

		got := NewDense(r, k)
		a.MulInto(b, got)
		if want := a.Mul(b); !bitsEqual(got.data, want.data) {
			t.Fatalf("trial %d: MulInto differs from Mul", trial)
		}

		gv := make([]float64, r)
		a.MulVecInto(x, gv)
		if !bitsEqual(gv, a.MulVec(x)) {
			t.Fatalf("trial %d: MulVecInto differs from MulVec", trial)
		}

		gt := make([]float64, c)
		a.MulVecTInto(xr, gt)
		if !bitsEqual(gt, a.MulVecT(xr)) {
			t.Fatalf("trial %d: MulVecTInto differs from MulVecT", trial)
		}

		tr := NewDense(c, r)
		a.TInto(tr)
		if !bitsEqual(tr.data, a.T().data) {
			t.Fatalf("trial %d: TInto differs from T", trial)
		}

		dst := make([]float64, c)
		if !bitsEqual(AddVecInto(dst, x, x), AddVec(x, x)) {
			t.Fatalf("trial %d: AddVecInto differs from AddVec", trial)
		}
		if !bitsEqual(SubVecInto(dst, x, x), SubVec(x, x)) {
			t.Fatalf("trial %d: SubVecInto differs from SubVec", trial)
		}
		s := rng.NormFloat64()
		if !bitsEqual(ScaleVecInto(dst, s, x), ScaleVec(s, x)) {
			t.Fatalf("trial %d: ScaleVecInto differs from ScaleVec", trial)
		}
	}
}

// The hot-path contract: once the factor objects are sized, the
// factorize/solve cycle performs zero allocations.
func TestLUFactorizeSolveIntoNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 24
	a := randomSPD(rng, n)
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var lu LU
	if err := FactorizeInto(&lu, a); err != nil { // size the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := FactorizeInto(&lu, a); err != nil {
			t.Fatal(err)
		}
		lu.SolveInto(b, x)
	})
	if allocs != 0 {
		t.Fatalf("warm LU FactorizeInto+SolveInto allocates %v objects/op, want 0", allocs)
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
