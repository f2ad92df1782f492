package qp

import "evclimate/internal/mat"

// stageKKT is the stage-structured interior-point KKT backend. For a
// multi-stage problem it solves the same regularized Newton system as the
// dense kktFactor path,
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
// All storage lives in the struct and is reused across iterations and
// Solve calls — allocation-free once sized.
type stageKKT struct {
	n, nv, ne int // the layout the buffers are sized for

	diag  []*mat.Dense // assembled superblocks (lower triangle)
	sub   []*mat.Dense // sub-diagonal coupling blocks
	signs []int8       // quasi-definite pivot sign pattern
	bt    mat.BlockTriDiag

	pvar, peq  []int // dense index → permuted index
	prhs, psol []float64
}

// ensure sizes the backend for p's stage layout. It is a no-op when the
// layout is unchanged.
func (f *stageKKT) ensure(p *Problem) {
	nst := len(p.H)
	nv, _ := p.H[0].Dims()
	ne := 0
	if p.Aeq != nil {
		ne = p.Aeq.rows
	}
	if f.n == nst && f.nv == nv && f.ne == ne && f.prhs != nil {
		return
	}
	f.n, f.nv, f.ne = nst, nv, ne
	n, meq, m := nst*nv, nst*ne, nv+ne
	f.diag = make([]*mat.Dense, nst)
	f.sub = make([]*mat.Dense, nst)
	f.signs = make([]int8, n+meq)
	f.pvar = make([]int, n)
	f.peq = make([]int, meq)
	dims := make([]int, nst)
	q := 0
	for k := 0; k < nst; k++ {
		dims[k] = m
		f.diag[k] = mat.NewDense(m, m)
		if k > 0 {
			f.sub[k] = mat.NewDense(m, m)
		}
		for i := 0; i < nv; i++ {
			f.signs[q+i] = 1
			f.pvar[k*nv+i] = q + i
		}
		for j := 0; j < ne; j++ {
			f.signs[q+nv+j] = -1
			f.peq[k*ne+j] = q + nv + j
		}
		q += m
	}
	f.bt.Reserve(dims)
	f.prhs = make([]float64, n+meq)
	f.psol = make([]float64, n+meq)
}

// assemble fills the superblocks from the Hessian blocks, Aeq, and the
// barrier weights d_r = z[r]/s[r] of the inequality rows. Only the lower
// triangle of each diagonal block is written (all the factorization
// reads).
func (f *stageKKT) assemble(p *Problem, z, s []float64) {
	nv, ne := f.nv, f.ne
	for k := 0; k < f.n; k++ {
		hk := p.H[k]
		blk := f.diag[k].Zero()
		// K diagonal block: H_k + reg·I.
		for i := 0; i < nv; i++ {
			brow := blk.RawRow(i)
			copy(brow[:i+1], hk.RawRow(i)[:i+1])
			brow[i] += kktReg
		}
		// Equality rows of stage k restricted to stage-k variables (the
		// last nv entries of each row window), and the −reg dual
		// diagonal.
		for e := 0; e < ne; e++ {
			_, arow := p.Aeq.Row(k*ne + e)
			brow := blk.RawRow(nv + e)
			copy(brow[:nv], arow[len(arow)-nv:])
			brow[nv+e] = -kktReg
		}
		if k > 0 {
			// Coupling block: the equality rows of stage k restricted to
			// stage-(k−1) variables. H has no coupling (block diagonal),
			// and stage-(k−1) rows cannot touch stage-k variables, so
			// everything else in it is zero.
			cb := f.sub[k].Zero()
			for e := 0; e < ne; e++ {
				_, arow := p.Aeq.Row(k*ne + e)
				copy(cb.RawRow(nv + e)[:nv], arow[:nv])
			}
		}
	}
	// Barrier terms: each inequality row r in stage k contributes the
	// rank-one update d_r·a·aᵀ over its support window, split between
	// the two diagonal blocks and the coupling block it straddles.
	ni := p.Ain.rows
	for k := 0; k < f.n; k++ {
		vo := k * nv
		var dk, dkp, ck *mat.Dense
		dk = f.diag[k]
		if k > 0 {
			dkp = f.diag[k-1]
			ck = f.sub[k]
		}
		for r := k * ni; r < (k+1)*ni; r++ {
			d := z[r] / s[r]
			lo, arow := p.Ain.Row(r)
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
						ck.Add(a-vo, b-lo, v)
					default:
						dkp.Add(a-lo, b-lo, v)
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
