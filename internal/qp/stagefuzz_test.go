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
	pzNegBlock              // negated diagonal block (non-SPD)
	pzDupRow                // duplicated inequality row (degenerate active set)
	pzHugeScale             // 1e150 scale on the Hessian
	pzZeroEqRow             // all-zero equality row of the last stage (no pivot)
	pzTinyScale             // 1e-150 scale (underflow-prone barrier terms)
)

// buildStageQP expands (seed, nst, scale, poison) into a stage QP with
// nv=2, ne=1, ni=2 per stage, every row coupling whole stages (nx = nv).
func buildStageQP(seed uint64, nst int, scale float64, poison uint8) *Problem {
	const nv, ne, ni = 2, 1, 2
	rng := splitmix64(seed)
	h := make([]*mat.Dense, nst)
	for k := range h {
		h[k] = mat.NewDense(nv, nv)
		// SPD diagonal block G·Gᵀ + I.
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
				h[k].Set(i, j, acc*scale)
			}
		}
	}
	if poison&pzZeroH != 0 {
		for _, b := range h {
			b.Zero()
		}
	}
	if poison&pzNegBlock != 0 {
		b := h[nst/2]
		for i := 0; i < nv; i++ {
			for j := 0; j < nv; j++ {
				b.Set(i, j, -b.At(i, j))
			}
		}
	}
	c := make([]float64, nst*nv)
	for i := range c {
		c[i] = rng.unit()
	}
	aeq := NewStageMatrix(nst, nv, nv, ne)
	beq := make([]float64, nst*ne)
	for r := range beq {
		lo, v := aeq.Row(r)
		for j := range v {
			aeq.Set(r, lo+j, rng.unit())
		}
		beq[r] = 0.1 * rng.unit()
	}
	if poison&pzZeroEqRow != 0 {
		r := len(beq) - 1
		lo, v := aeq.Row(r)
		for j := range v {
			aeq.Set(r, lo+j, 0)
		}
		beq[len(beq)-1] = 0
	}
	ain := NewStageMatrix(nst, nv, nv, ni)
	bin := make([]float64, nst*ni)
	for r := range bin {
		lo, v := ain.Row(r)
		for j := range v {
			ain.Set(r, lo+j, rng.unit())
		}
		bin[r] = 1 + rng.unit() // slack at x = 0
	}
	if poison&pzDupRow != 0 {
		_, v0 := ain.Row(0)
		lo1, _ := ain.Row(1)
		for j, v := range v0 {
			ain.Set(1, lo1+j, v)
		}
		bin[1] = bin[0]
	}
	return &Problem{H: h, C: c, Aeq: aeq, Beq: beq, Ain: ain, Bin: bin}
}

// FuzzStageKKT throws seeded stage-structured QPs — including
// ill-conditioned, non-SPD and degenerate ones — at the stage backend,
// in their stage layout and in their one-stage form, which factors on
// the same recursion as a single stage. Properties, for both forms:
// Solve never panics, an Optimal status always carries a finite X, and
// a problem whose equality block has no pivot (pzZeroEqRow: an all-zero
// row, so no own-variable coefficient in either form) fails cleanly
// with NumericalFailure and a finite X.
func FuzzStageKKT(f *testing.F) {
	f.Add(uint64(1), uint8(3), 1.0, uint8(0))
	f.Add(uint64(2), uint8(5), 1.0, uint8(pzZeroH))
	f.Add(uint64(3), uint8(4), 1.0, uint8(pzNegBlock))
	f.Add(uint64(4), uint8(4), 1.0, uint8(pzDupRow))
	f.Add(uint64(5), uint8(4), 1.0, uint8(pzZeroEqRow))
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
		for _, form := range []struct {
			name string
			p    *Problem
		}{{"stage form", p}, {"one-stage form", p.OneStage()}} {
			res, err := Solve(form.p, Options{})
			if err == nil && res.Status == Optimal && !mat.AllFinite(res.X) {
				t.Fatalf("%s: Optimal status with non-finite X = %v", form.name, res.X)
			}
			if res != nil && poison&pzZeroEqRow != 0 && (err == nil || res.Status != NumericalFailure || !mat.AllFinite(res.X)) {
				t.Fatalf("%s without an equality pivot: status %v, err %v, X %v; want a clean NumericalFailure", form.name, res.Status, err, res.X)
			}
		}
	})
}
