package qp

import "evclimate/internal/mat"

// stageKKT is the stage-structured interior-point KKT backend. For a
// problem declaring a conforming StageStructure it solves the same
// regularized Newton system as the dense kktFactor path,
//
//	[ H + AinᵀD Ain + regI    Aeqᵀ  ] [dx]   [r1]
//	[ Aeq                    −regI  ] [dy] = [r2]
//
// but permuted into stage-interleaved order [v_0, e_0, v_1, e_1, …],
// where it is symmetric block-tridiagonal with superblocks of size
// NV+NE. The permuted matrix is symmetric quasi-definite (K-block
// SPD, −regI dual block), so the unpivoted block LDLᵀ recursion in
// mat.BlockTriDiag factors it stably with a known pivot sign pattern;
// a sign violation (numerically lost quasi-definiteness under extreme
// barrier weights) surfaces as an error and the caller demotes to the
// dense path for the remainder of the solve. Because the same static
// regularization is used, the structured and dense paths solve the
// identical linear system and agree to roundoff.
//
// The backend also provides banded matrix-vector products restricted to
// each stage's support window; without them the dense residual matvecs
// would dominate once the factorization is cheap.
//
// All storage lives in the struct and is reused across iterations and
// Solve calls — allocation-free once sized.
type stageKKT struct {
	ss StageStructure // the layout the buffers are sized for

	diag  []*mat.Dense // assembled superblocks (lower triangle)
	sub   []*mat.Dense // sub-diagonal coupling blocks
	signs []int8       // quasi-definite pivot sign pattern
	bt    mat.BlockTriDiag

	pvar, peq  []int // dense index → permuted index
	prhs, psol []float64
}

// ensure sizes the backend for the given structure. It is a no-op when
// the layout is unchanged.
func (f *stageKKT) ensure(ss *StageStructure) {
	if f.ss == *ss && f.prhs != nil {
		return
	}
	f.ss = *ss
	nst, nv, ne := ss.N, ss.NV, ss.NE
	n, meq, m := nst*nv, nst*ne, nv+ne
	f.diag = make([]*mat.Dense, nst)
	f.sub = make([]*mat.Dense, nst)
	f.signs = make([]int8, n+meq)
	f.pvar = make([]int, n)
	f.peq = make([]int, meq)
	dims := make([]int, nst)
	p := 0
	for k := 0; k < nst; k++ {
		dims[k] = m
		f.diag[k] = mat.NewDense(m, m)
		if k > 0 {
			f.sub[k] = mat.NewDense(m, m)
		}
		for i := 0; i < nv; i++ {
			f.signs[p+i] = 1
			f.pvar[k*nv+i] = p + i
		}
		for j := 0; j < ne; j++ {
			f.signs[p+nv+j] = -1
			f.peq[k*ne+j] = p + nv + j
		}
		p += m
	}
	f.bt.Reserve(dims)
	f.prhs = make([]float64, n+meq)
	f.psol = make([]float64, n+meq)
}

// loV returns the lower bound of stage k's constraint-support window
// (stage k rows may touch the variables of stages k−1 and k).
func (f *stageKKT) loV(k int) int {
	if k == 0 {
		return 0
	}
	return (k - 1) * f.ss.NV
}

// hiH returns the upper bound of stage k's Hessian band window (H rows
// of stage k may additionally touch stage k+1, by symmetry).
func (f *stageKKT) hiH(k int) int {
	if k+2 > f.ss.N {
		return f.ss.N * f.ss.NV
	}
	return (k + 2) * f.ss.NV
}

// conforms scans the out-of-band entries of H, Aeq, and Ain and reports
// whether the declared structural contract actually holds for the
// problem data. A false return means the caller must use the dense path.
func (f *stageKKT) conforms(p *Problem) bool {
	nv, ne, ni := f.ss.NV, f.ss.NE, f.ss.NI
	for k := 0; k < f.ss.N; k++ {
		lo, hiB := f.loV(k), f.hiH(k)
		for i := k * nv; i < (k+1)*nv; i++ {
			row := p.H.RawRow(i)
			if !allZero(row[:lo]) || !allZero(row[hiB:]) {
				return false
			}
		}
		hi := (k + 1) * nv
		for r := k * ne; r < (k+1)*ne; r++ {
			row := p.Aeq.RawRow(r)
			if !allZero(row[:lo]) || !allZero(row[hi:]) {
				return false
			}
		}
		for r := k * ni; r < (k+1)*ni; r++ {
			row := p.Ain.RawRow(r)
			if !allZero(row[:lo]) || !allZero(row[hi:]) {
				return false
			}
		}
	}
	return true
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// assemble fills the superblocks from H, Aeq, and the barrier weights
// d_r = z[r]/s[r] of the inequality rows. Only the lower triangle of
// each diagonal block is written (all the factorization reads).
func (f *stageKKT) assemble(p *Problem, z, s []float64) {
	nv, ne, ni := f.ss.NV, f.ss.NE, f.ss.NI
	for k := 0; k < f.ss.N; k++ {
		vo := k * nv
		blk := f.diag[k].Zero()
		// K diagonal block: H[v_k, v_k] + reg·I.
		for i := 0; i < nv; i++ {
			hrow := p.H.RawRow(vo + i)
			brow := blk.RawRow(i)
			for j := 0; j <= i; j++ {
				brow[j] = hrow[vo+j]
			}
			brow[i] += kktReg
		}
		// Equality rows of stage k restricted to stage-k variables, and
		// the −reg dual diagonal.
		for e := 0; e < ne; e++ {
			arow := p.Aeq.RawRow(k*ne + e)
			brow := blk.RawRow(nv + e)
			copy(brow[:nv], arow[vo:vo+nv])
			brow[nv+e] = -kktReg
		}
		if k > 0 {
			vop := vo - nv
			cb := f.sub[k].Zero()
			// K coupling block H[v_k, v_{k−1}].
			for i := 0; i < nv; i++ {
				hrow := p.H.RawRow(vo + i)
				copy(cb.RawRow(i)[:nv], hrow[vop:vop+nv])
			}
			// Equality rows of stage k restricted to stage-(k−1)
			// variables. (Stage-(k−1) rows cannot touch stage-k
			// variables under the backward-support contract, so the
			// dual columns of the coupling block stay zero.)
			for e := 0; e < ne; e++ {
				arow := p.Aeq.RawRow(k*ne + e)
				copy(cb.RawRow(nv + e)[:nv], arow[vop:vop+nv])
			}
		}
	}
	// Barrier terms: each inequality row r in stage k contributes the
	// rank-one update d_r·a·aᵀ over its support window, split between
	// the two diagonal blocks and the coupling block it straddles.
	for k := 0; k < f.ss.N; k++ {
		lo, vo := f.loV(k), k*nv
		hi := vo + nv
		var dk, dkp, ck *mat.Dense
		dk = f.diag[k]
		if k > 0 {
			dkp = f.diag[k-1]
			ck = f.sub[k]
		}
		vop := lo
		for r := k * ni; r < (k+1)*ni; r++ {
			d := z[r] / s[r]
			arow := p.Ain.RawRow(r)[lo:hi]
			for i, ai := range arow {
				if ai == 0 {
					continue
				}
				a := lo + i
				for j, aj := range arow[:i+1] {
					if aj == 0 {
						continue
					}
					b := lo + j
					v := d * ai * aj
					switch {
					case b >= vo:
						dk.Add(a-vo, b-vo, v)
					case a >= vo:
						ck.Add(a-vo, b-vop, v)
					default:
						dkp.Add(a-vop, b-vop, v)
					}
				}
			}
		}
	}
}

// factorize runs the block LDLᵀ recursion on the assembled blocks. A
// non-nil error means quasi-definiteness was lost numerically; the
// caller falls back to the dense path.
func (f *stageKKT) factorize() error {
	return f.bt.Factorize(f.diag, f.sub, f.signs)
}

// solveInto solves the KKT system for right-hand sides r1 (length n) and
// r2 (length meq) into dx, dy, permuting through the stage ordering.
func (f *stageKKT) solveInto(r1, r2, dx, dy []float64) {
	for i, p := range f.pvar {
		f.prhs[p] = r1[i]
	}
	for r, p := range f.peq {
		f.prhs[p] = r2[r]
	}
	f.bt.SolveInto(f.prhs, f.psol)
	for i, p := range f.pvar {
		dx[i] = f.psol[p]
	}
	for r, p := range f.peq {
		dy[r] = f.psol[p]
	}
}

// mulH computes dst = H·x exploiting the block-tridiagonal band.
func (f *stageKKT) mulH(h *mat.Dense, x, dst []float64) []float64 {
	nv := f.ss.NV
	for k := 0; k < f.ss.N; k++ {
		lo, hi := f.loV(k), f.hiH(k)
		xw := x[lo:hi]
		for i := k * nv; i < (k+1)*nv; i++ {
			row := h.RawRow(i)[lo:hi]
			var acc float64
			for j, v := range row {
				acc += v * xw[j]
			}
			dst[i] = acc
		}
	}
	return dst
}

// mulA computes dst = A·x for a stage-partitioned constraint matrix with
// rows rows per stage (NE for Aeq, NI for Ain).
func (f *stageKKT) mulA(a *mat.Dense, rows int, x, dst []float64) []float64 {
	for k := 0; k < f.ss.N; k++ {
		lo, hi := f.loV(k), (k+1)*f.ss.NV
		xw := x[lo:hi]
		for r := k * rows; r < (k+1)*rows; r++ {
			row := a.RawRow(r)[lo:hi]
			var acc float64
			for j, v := range row {
				acc += v * xw[j]
			}
			dst[r] = acc
		}
	}
	return dst
}

// mulAT computes dst = Aᵀ·y for a stage-partitioned constraint matrix.
func (f *stageKKT) mulAT(a *mat.Dense, rows int, y, dst []float64) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	for k := 0; k < f.ss.N; k++ {
		lo, hi := f.loV(k), (k+1)*f.ss.NV
		dw := dst[lo:hi]
		for r := k * rows; r < (k+1)*rows; r++ {
			yr := y[r]
			if yr == 0 {
				continue
			}
			row := a.RawRow(r)[lo:hi]
			for j, v := range row {
				dw[j] += v * yr
			}
		}
	}
	return dst
}
