package qp

import (
	"math/rand"
	"testing"
)

// coldKKTIterate returns the cold MPC fixture (coldDemotionQP) and the
// slacks and multipliers of its solve's final iterate, where the
// barrier weights z/s span 1e-26…1e37: the Newton system a capped MPC
// subproblem factors last.
func coldKKTIterate(b *testing.B) (p *Problem, z, s []float64) {
	p, tol := coldDemotionQP(b)
	ws := NewWorkspace()
	if _, err := Solve(p, Options{Tol: tol, Work: ws}); err != nil {
		b.Fatal(err)
	}
	return p, ws.z, ws.s
}

// BenchmarkKKTFactor times one factorization of the stage KKT backend
// at the cold fixture's final iterate: the assembly of the stage
// Hessians and the backward Riccati recursion, the "KKT assemble/factor"
// layer of an interior-point iteration.
func BenchmarkKKTFactor(b *testing.B) {
	p, z, s := coldKKTIterate(b)
	var f stageKKT
	f.ensure(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.factor(p, z, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKKTSolve times one Newton-step solve (solveInto) on that
// factorization, the "KKT solve" layer: an interior-point iteration
// makes two, the predictor and the corrector.
func BenchmarkKKTSolve(b *testing.B) {
	p, z, s := coldKKTIterate(b)
	var f stageKKT
	f.ensure(p)
	if err := f.factor(p, z, s); err != nil {
		b.Fatal(err)
	}
	n, meq := len(p.C), len(p.Beq)
	rng := rand.New(rand.NewSource(1))
	r := make([]float64, n+meq)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	step := make([]float64, n+meq)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.solveInto(r[:n], r[n:], step[:n], step[n:])
	}
}
