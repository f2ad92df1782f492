package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randSPD fills dst (lower triangle significant) with GᵀG + ridge·I for a
// random G, giving a symmetric positive definite block.
func randSPD(rng *rand.Rand, n int, ridge float64) *Dense {
	g := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.Set(i, j, rng.NormFloat64())
		}
	}
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += g.At(k, i) * g.At(k, j)
			}
			a.Set(i, j, s)
		}
		a.Add(i, i, ridge)
	}
	return a
}

// quasiDefBlock builds a symmetric quasi-definite block
// [K Aᵀ; A −δI] with K SPD (nv×nv) and ne equality-style rows.
func quasiDefBlock(rng *rand.Rand, nv, ne int, delta float64) (*Dense, []int8) {
	m := nv + ne
	b := NewDense(m, m)
	k := randSPD(rng, nv, 0.1)
	for i := 0; i < nv; i++ {
		for j := 0; j <= i; j++ {
			b.Set(i, j, k.At(i, j))
			b.Set(j, i, k.At(i, j))
		}
	}
	for r := 0; r < ne; r++ {
		for j := 0; j < nv; j++ {
			v := rng.NormFloat64()
			b.Set(nv+r, j, v)
			b.Set(j, nv+r, v)
		}
		b.Set(nv+r, nv+r, -delta)
	}
	signs := make([]int8, m)
	for i := 0; i < nv; i++ {
		signs[i] = 1
	}
	for i := nv; i < m; i++ {
		signs[i] = -1
	}
	return b, signs
}

func TestLDLMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nv := 1 + rng.Intn(5)
		ne := rng.Intn(4)
		a, signs := quasiDefBlock(rng, nv, ne, 1e-9)
		n := nv + ne
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		var f LDL
		if err := LDLFactorizeInto(&f, a, signs); err != nil {
			t.Fatalf("trial %d: LDL failed on quasi-definite block: %v", trial, err)
		}
		x := f.SolveInto(b, make([]float64, n))
		// The δ = 1e-9 block has condition ~1e9, so two different exact
		// factorizations legitimately differ by κ·ε in the solution;
		// judge by the residual, which must be small for both.
		ax := a.MulVec(x)
		scale := 1 + NormInf(b) + a.MaxAbs()*NormInf(x)
		for i := range ax {
			if math.Abs(ax[i]-b[i]) > 1e-10*scale {
				t.Fatalf("trial %d: residual[%d] = %g (scale %g)", trial, i, ax[i]-b[i], scale)
			}
		}
		want, err := luSolve(a, b)
		if err != nil {
			t.Fatalf("trial %d: LU reference failed: %v", trial, err)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-5*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, x[i], want[i])
			}
		}
	}
}

func TestLDLSolveInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, signs := quasiDefBlock(rng, 4, 2, 1e-9)
	var f LDL
	if err := LDLFactorizeInto(&f, a, signs); err != nil {
		t.Fatal(err)
	}
	b := []float64{1, -2, 3, 0.5, -1, 2}
	sep := f.SolveInto(b, make([]float64, len(b)))
	inPlace := append([]float64{}, b...)
	f.SolveInto(inPlace, inPlace)
	for i := range sep {
		if sep[i] != inPlace[i] {
			t.Fatalf("in-place solve diverges at %d: %g vs %g", i, inPlace[i], sep[i])
		}
	}
}

func TestLDLRejectsWrongInertia(t *testing.T) {
	// An SPD matrix factored with an expected-negative pivot must fail.
	a := NewDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 3)
	if err := LDLFactorizeInto(&LDL{}, a, []int8{1, -1}); err != ErrNotSPD {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
	// Zero pivot must fail regardless of signs.
	z := NewDense(2, 2)
	z.Set(1, 1, 1)
	if err := LDLFactorizeInto(&LDL{}, z, nil); err != ErrNotSPD {
		t.Fatalf("zero pivot: err = %v, want ErrNotSPD", err)
	}
}

// assembleBlockTri expands diagonal and sub-diagonal blocks into the full
// dense symmetric matrix for reference solves.
func assembleBlockTri(diag, sub []*Dense) *Dense {
	var dim int
	off := make([]int, len(diag)+1)
	for k, b := range diag {
		r, _ := b.Dims()
		off[k+1] = off[k] + r
		dim += r
	}
	m := NewDense(dim, dim)
	for k, b := range diag {
		r, _ := b.Dims()
		for i := 0; i < r; i++ {
			for j := 0; j <= i; j++ {
				m.Set(off[k]+i, off[k]+j, b.At(i, j))
				m.Set(off[k]+j, off[k]+i, b.At(i, j))
			}
		}
		if k > 0 {
			c := sub[k]
			cr, cc := c.Dims()
			for i := 0; i < cr; i++ {
				for j := 0; j < cc; j++ {
					m.Set(off[k]+i, off[k-1]+j, c.At(i, j))
					m.Set(off[k-1]+j, off[k]+i, c.At(i, j))
				}
			}
		}
	}
	return m
}

func TestBlockTriDiagMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		nStages := 2 + rng.Intn(6)
		diag := make([]*Dense, nStages)
		sub := make([]*Dense, nStages)
		var signs []int8
		dims := make([]int, nStages)
		for k := 0; k < nStages; k++ {
			nv := 1 + rng.Intn(4)
			ne := rng.Intn(3)
			b, sg := quasiDefBlock(rng, nv, ne, 1e-9)
			diag[k] = b
			signs = append(signs, sg...)
			dims[k] = nv + ne
			if k > 0 {
				c := NewDense(dims[k], dims[k-1])
				for i := 0; i < dims[k]; i++ {
					for j := 0; j < dims[k-1]; j++ {
						c.Set(i, j, 0.3*rng.NormFloat64())
					}
				}
				sub[k] = c
			}
		}
		var f BlockTriDiag
		if err := f.Factorize(diag, sub, signs); err != nil {
			// Random couplings can genuinely break quasi-definiteness of
			// the Schur complements; a clean error is the contract.
			continue
		}
		full := assembleBlockTri(diag, sub)
		dim, _ := full.Dims()
		b := make([]float64, dim)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := f.SolveInto(b, make([]float64, dim))
		want, err := luSolve(full, b)
		if err != nil {
			t.Fatalf("trial %d: dense reference failed: %v", trial, err)
		}
		scale := 1 + NormInf(want)
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-6*scale {
				t.Fatalf("trial %d: x[%d] = %g, want %g (dim %d)", trial, i, x[i], want[i], dim)
			}
		}
	}
}

func TestBlockTriDiagReuseNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nStages := 5
	diag := make([]*Dense, nStages)
	sub := make([]*Dense, nStages)
	var signs []int8
	for k := 0; k < nStages; k++ {
		b, sg := quasiDefBlock(rng, 4, 2, 1e-9)
		diag[k] = b
		signs = append(signs, sg...)
		if k > 0 {
			sub[k] = NewDense(6, 6)
			for i := 0; i < 6; i++ {
				sub[k].Set(i, (i+1)%6, 0.1)
			}
		}
	}
	var f BlockTriDiag
	if err := f.Factorize(diag, sub, signs); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 30)
	x := make([]float64, 30)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := f.Factorize(diag, sub, signs); err != nil {
			t.Fatal(err)
		}
		f.SolveInto(b, x)
	})
	if allocs != 0 {
		t.Fatalf("warm Factorize+SolveInto allocates %.1f/op, want 0", allocs)
	}
}

func TestBlockTriDiagFallbackSignal(t *testing.T) {
	// A diagonal block with flipped inertia must surface ErrNotSPD so the
	// interior-point caller can fall back to its dense LU path.
	diag := []*Dense{NewDense(2, 2), NewDense(2, 2)}
	sub := []*Dense{nil, NewDense(2, 2)}
	diag[0].Set(0, 0, 1)
	diag[0].Set(1, 1, -1e-9)
	diag[1].Set(0, 0, -1) // expected positive
	diag[1].Set(1, 1, -1e-9)
	signs := []int8{1, -1, 1, -1}
	var f BlockTriDiag
	if err := f.Factorize(diag, sub, signs); err != ErrNotSPD {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}
