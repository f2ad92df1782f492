package qp

import (
	"math"
	"testing"

	"evclimate/internal/mat"
)

// splitmix64 is a tiny deterministic PRNG so one fuzz-input seed expands
// into a whole stage QP reproducibly.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a uniform draw in [−1, 1).
func (s *splitmix64) unit() float64 {
	return float64(int64(s.next()>>11))/(1<<52) - 1
}

// Poison flags for FuzzStageKKT: each bit injects one pathology into an
// otherwise well-posed stage-structured QP.
const (
	pzZeroH     = 1 << iota // zero Hessian (not strictly convex)
	pzNegBlock              // negated diagonal block (non-SPD → demotion)
	pzDupRow                // duplicated inequality row (degenerate active set)
	pzOutOfBand             // out-of-band H entry (non-conforming → dense)
	pzHugeScale             // 1e150 scale on the Hessian
	pzZeroEqRow             // all-zero equality row (rank-deficient Aeq)
	pzTinyScale             // 1e-150 scale (underflow-prone barrier terms)
)

// buildStageQP expands (seed, nst, scale, poison) into a stage QP with
// nv=2, ne=1, ni=2 per stage, band-conforming unless pzOutOfBand.
func buildStageQP(seed uint64, nst int, scale float64, poison uint8) *Problem {
	const nv, ne, ni = 2, 1, 2
	rng := splitmix64(seed)
	n, meq, min := nst*nv, nst*ne, nst*ni
	h := mat.NewDense(n, n)
	for k := 0; k < nst; k++ {
		o := k * nv
		// SPD diagonal block G·Gᵀ + I, then the stage coupling.
		var g [nv][nv]float64
		for i := 0; i < nv; i++ {
			for j := 0; j < nv; j++ {
				g[i][j] = rng.unit()
			}
		}
		for i := 0; i < nv; i++ {
			for j := 0; j < nv; j++ {
				var acc float64
				for l := 0; l < nv; l++ {
					acc += g[i][l] * g[j][l]
				}
				if i == j {
					acc++
				}
				h.Set(o+i, o+j, acc*scale)
			}
		}
		if k > 0 {
			for i := 0; i < nv; i++ {
				for j := 0; j < nv; j++ {
					v := 0.3 * rng.unit() * scale
					h.Set(o+i, o-nv+j, v)
					h.Set(o-nv+j, o+i, v)
				}
			}
		}
	}
	if poison&pzZeroH != 0 {
		h.Zero()
	}
	if poison&pzNegBlock != 0 {
		o := (nst / 2) * nv
		for i := 0; i < nv; i++ {
			for j := 0; j < nv; j++ {
				h.Set(o+i, o+j, -h.At(o+i, o+j))
			}
		}
	}
	if poison&pzOutOfBand != 0 && nst >= 3 {
		h.Set(0, n-1, 1e-3)
		h.Set(n-1, 0, 1e-3)
	}
	c := make([]float64, n)
	for i := range c {
		c[i] = rng.unit()
	}
	aeq := mat.NewDense(meq, n)
	beq := make([]float64, meq)
	for k := 0; k < nst; k++ {
		lo := 0
		if k > 0 {
			lo = (k - 1) * nv
		}
		for j := lo; j < (k+1)*nv; j++ {
			aeq.Set(k, j, rng.unit())
		}
		beq[k] = 0.1 * rng.unit()
	}
	if poison&pzZeroEqRow != 0 {
		for j := 0; j < n; j++ {
			aeq.Set(meq-1, j, 0)
		}
		beq[meq-1] = 0
	}
	ain := mat.NewDense(min, n)
	bin := make([]float64, min)
	for k := 0; k < nst; k++ {
		for r := 0; r < ni; r++ {
			row := k*ni + r
			lo := 0
			if k > 0 {
				lo = (k - 1) * nv
			}
			for j := lo; j < (k+1)*nv; j++ {
				ain.Set(row, j, rng.unit())
			}
			bin[row] = 1 + rng.unit() // slack at x = 0
		}
	}
	if poison&pzDupRow != 0 && min >= 2 {
		for j := 0; j < n; j++ {
			ain.Set(1, j, ain.At(0, j))
		}
		bin[1] = bin[0]
	}
	return &Problem{
		H: h, C: c, Aeq: aeq, Beq: beq, Ain: ain, Bin: bin,
		Stages: UniformStages(nst, nv, ne, ni),
	}
}

// FuzzStageKKT throws seeded stage-structured QPs — including
// ill-conditioned, non-SPD, degenerate, and band-violating ones — at the
// structured backend. Properties: Solve never panics, an Optimal status
// always carries a finite X, a band-violating problem never reports
// Structured (the fallback is silent but honest), and whatever the
// structured attempt decides, the dense backend on the same problem also
// returns without panicking.
func FuzzStageKKT(f *testing.F) {
	f.Add(uint64(1), uint8(3), 1.0, uint8(0))
	f.Add(uint64(2), uint8(5), 1.0, uint8(pzZeroH))
	f.Add(uint64(3), uint8(4), 1.0, uint8(pzNegBlock))
	f.Add(uint64(4), uint8(4), 1.0, uint8(pzDupRow))
	f.Add(uint64(5), uint8(4), 1.0, uint8(pzOutOfBand))
	f.Add(uint64(6), uint8(3), 1e150, uint8(pzHugeScale))
	f.Add(uint64(7), uint8(3), 1e-150, uint8(pzTinyScale))
	f.Add(uint64(8), uint8(6), 1.0, uint8(pzNegBlock|pzDupRow|pzZeroEqRow))
	f.Add(uint64(9), uint8(12), 1.0, uint8(0))

	f.Fuzz(func(t *testing.T, seed uint64, nstRaw uint8, scale float64, poison uint8) {
		nst := 2 + int(nstRaw)%11 // 2..12 stages
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			scale = 1
		}
		if poison&pzHugeScale != 0 {
			scale *= 1e150
		}
		if poison&pzTinyScale != 0 {
			scale *= 1e-150
		}
		p := buildStageQP(seed, nst, scale, poison)

		res, err := Solve(p, Options{})
		if err == nil {
			if res.Status == Optimal && !mat.AllFinite(res.X) {
				t.Fatalf("Optimal status with non-finite X = %v", res.X)
			}
			if poison&pzOutOfBand != 0 && nst >= 3 && res.Structured {
				t.Fatalf("band-violating problem reported Structured")
			}
		}

		// The dense reference must accept/reject the same data without
		// panicking either; its Structured flag must stay false.
		dres, derr := Solve(denseCopy(p), Options{})
		if derr == nil && dres.Structured {
			t.Fatalf("undeclared problem reported Structured")
		}
		_ = err
	})
}
