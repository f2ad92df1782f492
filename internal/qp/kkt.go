package qp

import (
	"errors"

	"evclimate/internal/mat"
)

// kktFactor solves the interior-point Newton system
//
//	[ K    Aᵀ  ] [dx]   [r1]
//	[ A   −δI  ] [dy] = [r2]
//
// with K symmetric positive definite, via block elimination: a Cholesky
// factorization of K, the thick solve Y = K⁻¹Aᵀ, and a Cholesky
// factorization of the (small) Schur complement S = A·Y + δI. This is
// ~1.5× cheaper than an LU of the full (n+meq) system and reuses the
// factorization across the predictor and corrector solves. When K is not
// numerically SPD (extreme barrier weights), the caller falls back to the
// dense LU path. All factor and scratch buffers live in the struct and
// are reused across iterations and Solve calls — factorize is
// allocation-free once sized.
type kktFactor struct {
	chK   mat.Cholesky
	chS   mat.Cholesky
	aeq   *mat.Dense // nil when meq == 0
	y     *mat.Dense // K⁻¹Aᵀ, n×meq
	sMat  *mat.Dense // Schur complement scratch, meq×meq
	col   []float64  // length n: one Aᵀ column, then its K⁻¹ solve
	t     []float64  // length meq
	yd    []float64  // length n
	delta float64
	n, mq int
}

// errNotSPD signals the caller to fall back to LU.
var errNotSPD = errors.New("qp: KKT K-block not SPD")

// reserve sizes every factor and scratch buffer for an n-variable
// problem with meq equality rows, so factorize performs no allocation.
func (f *kktFactor) reserve(n, meq int) {
	f.chK.Reserve(n)
	f.n, f.mq, f.y = n, meq, nil
	if meq > 0 {
		f.y = mat.NewDense(n, meq)
		f.sMat = mat.NewDense(meq, meq)
		f.col = make([]float64, n)
		f.t = make([]float64, meq)
		f.yd = make([]float64, n)
		f.chS.Reserve(meq)
	}
}

// factorize computes the factorization of K (n×n, dense symmetric) and,
// when aeq is non-nil, the Schur complement for the equality block,
// reusing the receiver's buffers.
func (f *kktFactor) factorize(k *mat.Dense, aeq *mat.Dense, delta float64) error {
	n, _ := k.Dims()
	meq := 0
	if aeq != nil {
		meq, _ = aeq.Dims()
	}
	if f.n != n || f.mq != meq {
		f.reserve(n, meq)
	}
	if err := mat.CholeskyFactorizeInto(&f.chK, k); err != nil {
		return errNotSPD
	}
	f.delta = delta
	f.aeq = aeq
	if aeq == nil {
		return nil
	}
	// Y = K⁻¹Aᵀ, one triangular solve pair per equality row.
	for i := 0; i < meq; i++ {
		f.chK.SolveInto(aeq.RawRow(i), f.col)
		for j := 0; j < n; j++ {
			f.y.Set(j, i, f.col[j])
		}
	}
	// S = A·Y + δI (meq×meq, SPD for full-row-rank A).
	aeq.MulInto(f.y, f.sMat)
	for i := 0; i < meq; i++ {
		f.sMat.Add(i, i, delta)
	}
	if err := mat.CholeskyFactorizeInto(&f.chS, f.sMat); err != nil {
		return errNotSPD
	}
	return nil
}

// solveInto computes dx, dy for right-hand sides r1 (length n) and r2
// (length meq; ignored when there are no equalities).
func (f *kktFactor) solveInto(r1, r2, dx, dy []float64) {
	f.chK.SolveInto(r1, dx) // x0
	if f.aeq == nil {
		return
	}
	// S·dy = A·x0 − r2.
	f.aeq.MulVecInto(dx, f.t)
	for i := range f.t {
		f.t[i] -= r2[i]
	}
	f.chS.SolveInto(f.t, dy)
	// dx = x0 − Y·dy.
	f.y.MulVecInto(dy, f.yd)
	for i := range dx {
		dx[i] -= f.yd[i]
	}
}
