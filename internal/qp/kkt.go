package qp

import (
	"errors"

	"evclimate/internal/mat"
)

// kktSystem is a KKT backend: denseKKT for a one-stage problem,
// stageKKT for a multi-stage one.
type kktSystem interface {
	// factor assembles and factors the Newton matrix for barrier weights
	// z/s (nil: no inequalities).
	factor(p *Problem, z, s []float64) error
	// solveInto solves the factored system for r1, r2 into dx, dy.
	solveInto(r1, r2, dx, dy []float64)
}

// denseKKT is the one-stage backend. It factors the regularized Newton
// system
//
//	[ H + AinᵀD Ain + regI    Aeqᵀ   ]
//	[ Aeq                    −regI   ]
//
// densely: Cholesky plus Schur complement (kktFactor) when the K-block is
// numerically SPD, otherwise an LU of the whole saddle-point matrix.
type denseKKT struct {
	kBlock *mat.Dense
	aeq    *mat.Dense // dense copy of Aeq; nil when meq == 0
	kf     kktFactor
	useLU  bool

	// LU fallback, sized on first use since the Cholesky path normally
	// wins.
	kkt      *mat.Dense
	lu       mat.LU
	rhs, sol []float64
}

// ensure sizes the backend for n variables and meq equality rows.
func (d *denseKKT) ensure(n, meq int) {
	if d.kBlock != nil {
		if r, _ := d.kBlock.Dims(); r == n && d.kf.mq == meq {
			return
		}
	}
	d.kBlock = mat.NewDense(n, n)
	d.aeq = nil
	if meq > 0 {
		d.aeq = mat.NewDense(meq, n)
	}
	d.kf.reserve(n, meq)
	d.kkt = nil
}

// factor implements kktSystem.
func (d *denseKKT) factor(p *Problem, z, s []float64) error {
	if d.aeq != nil {
		p.Aeq.denseInto(d.aeq)
	}
	n, _ := d.kBlock.Dims()
	k := d.kBlock
	p.HessianInto(k)
	for i := 0; i < n; i++ {
		k.Add(i, i, kktReg)
	}
	for r := range z {
		dr := z[r] / s[r]
		cols, arow := p.Ain.nonzeros(r)
		for _, i := range cols {
			krow := k.RawRow(int(i))
			for _, j := range cols {
				krow[j] += dr * arow[i] * arow[j]
			}
		}
	}
	d.useLU = d.kf.factorize(k, d.aeq, kktReg) != nil
	if d.useLU {
		return d.factorSaddle()
	}
	return nil
}

// solveInto implements kktSystem.
func (d *denseKKT) solveInto(r1, r2, dx, dy []float64) {
	if !d.useLU {
		d.kf.solveInto(r1, r2, dx, dy)
		return
	}
	n := len(r1)
	copy(d.rhs, r1)
	copy(d.rhs[n:], r2)
	d.lu.SolveInto(d.rhs, d.sol)
	copy(dx, d.sol[:n])
	copy(dy, d.sol[n:])
}

// reserveLU sizes the LU fallback so its first use allocates nothing.
func (d *denseKKT) reserveLU() {
	n, _ := d.kBlock.Dims()
	dim := n + d.kf.mq
	if d.kkt != nil {
		if r, _ := d.kkt.Dims(); r == dim {
			return
		}
	}
	d.kkt = mat.NewDense(dim, dim)
	d.rhs = make([]float64, dim)
	d.sol = make([]float64, dim)
	d.lu.Reserve(dim)
}

// factorSaddle LU-factors the saddle-point system
//
//	[ K     Aeqᵀ  ]
//	[ Aeq  −regI  ]
//
// from the assembled K-block and the dense Aeq.
func (d *denseKKT) factorSaddle() error {
	d.reserveLU()
	n, _ := d.kBlock.Dims()
	kkt := d.kkt.Zero()
	for i := 0; i < n; i++ {
		copy(kkt.RawRow(i)[:n], d.kBlock.RawRow(i))
	}
	for i := 0; i < d.kf.mq; i++ {
		arow := d.aeq.RawRow(i)
		krow := kkt.RawRow(n + i)
		for j, v := range arow {
			krow[j] = v
			kkt.Set(j, n+i, v)
		}
		krow[n+i] = -kktReg
	}
	return mat.FactorizeInto(&d.lu, kkt)
}

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
// numerically SPD (extreme barrier weights), denseKKT falls back to the
// LU. All factor and scratch buffers live in the struct and are reused
// across iterations and Solve calls — factorize is allocation-free once
// sized.
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
