package sqp

import (
	"evclimate/internal/mat"
	"evclimate/internal/qp"
)

// Workspace is the SQP solver's arena: every vector and matrix the major
// iteration touches — the Lagrangian gradient scratch, the double-buffered
// iterate/gradient/constraint/Jacobian pairs that swap on each accepted
// step, the BFGS Hessian and its update scratch, the line-search trial
// point and the QP subproblem views. Pass it via Options.Work to make
// repeated Solve calls with same-shaped problems allocation-free; the
// MPC controller owns one per instance and reuses it every control step.
//
// A Workspace is not safe for concurrent use. When Options.Work is
// non-nil, the slices in the returned Result alias the workspace and are
// only valid until the next Solve call with that workspace; callers that
// retain them must copy.
type Workspace struct {
	n, meq, min, stages, nx int

	// Double-buffered iterate state: locals swap on accepted steps.
	x, xNew    []float64
	g, gNew    []float64
	ce, ceNew  []float64
	ci, ciNew  []float64
	je, jeNew  *qp.StageMatrix // nil when meq == 0
	ji, jiNew  *qp.StageMatrix // nil when min == 0
	lam, lamNV []float64       // multipliers + incoming QP duals
	mu, muNV   []float64

	lagGrad, tmpN []float64
	d             []float64 // QP step copy (stable across the next subproblem solve)
	yVec, sVec    []float64
	bs, bfgsR     []float64    // updateBFGSBlocks scratch
	b             []*mat.Dense // BFGS Hessian, one block per stage
	shifted       bool         // ShiftHessian ran: the next Solve starts from b

	// QP subproblem: the Problem view is rebuilt each iteration (the
	// Hessian, gradient and Jacobians swap buffers), the negated
	// right-hand sides and the inner workspace persist.
	sub            qp.Problem
	beqNeg, binNeg []float64
	qpWork         *qp.Workspace

	res Result
}

// NewWorkspace returns an empty workspace; buffers are sized on first
// use and re-sized only when the problem dimensions change.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the workspace for a problem of n variables, meq equality
// and min inequality rows over the given number of stages of nx state
// variables.
func (w *Workspace) ensure(n, meq, min, stages, nx int) {
	if w.n == n && w.meq == meq && w.min == min && w.stages == stages && w.nx == nx && w.x != nil {
		return
	}
	w.n, w.meq, w.min, w.stages, w.nx = n, meq, min, stages, nx
	w.shifted = false
	nv := n / stages
	w.x = make([]float64, n)
	w.xNew = make([]float64, n)
	w.g = make([]float64, n)
	w.gNew = make([]float64, n)
	w.ce = make([]float64, meq)
	w.ceNew = make([]float64, meq)
	w.ci = make([]float64, min)
	w.ciNew = make([]float64, min)
	w.je, w.jeNew = nil, nil
	if meq > 0 {
		w.je = qp.NewStageMatrix(stages, nv, nx, meq/stages)
		w.jeNew = qp.NewStageMatrix(stages, nv, nx, meq/stages)
	}
	w.ji, w.jiNew = nil, nil
	if min > 0 {
		w.ji = qp.NewStageMatrix(stages, nv, nx, min/stages)
		w.jiNew = qp.NewStageMatrix(stages, nv, nx, min/stages)
	}
	w.lam = make([]float64, meq)
	w.lamNV = make([]float64, meq)
	w.mu = make([]float64, min)
	w.muNV = make([]float64, min)
	w.lagGrad = make([]float64, n)
	w.tmpN = make([]float64, n)
	w.d = make([]float64, n)
	w.yVec = make([]float64, n)
	w.sVec = make([]float64, n)
	w.bs = make([]float64, n)
	w.bfgsR = make([]float64, n)
	w.b = make([]*mat.Dense, stages)
	for k := range w.b {
		w.b[k] = mat.NewDense(nv, nv)
	}
	w.beqNeg = make([]float64, meq)
	w.binNeg = make([]float64, min)
	if w.qpWork == nil {
		w.qpWork = qp.NewWorkspace()
	}
}

// ShiftHessian carries the BFGS blocks of the last Solve into the next
// one, shifted one stage the way a receding-horizon caller shifts its
// plan: block k+1 moves into block k and the last block repeats. Only
// the next Solve with this workspace starts from the shifted blocks;
// every other Solve seeds them with the scaled identity. A workspace
// that has not been sized by a Solve or by Hessian is left alone.
func (w *Workspace) ShiftHessian() {
	if len(w.b) == 0 {
		return
	}
	nv, _ := w.b[0].Dims()
	for k := 1; k < len(w.b); k++ {
		for i := 0; i < nv; i++ {
			copy(w.b[k-1].RawRow(i), w.b[k].RawRow(i))
		}
	}
	w.shifted = true
}

// Hessian sizes the workspace for p, when it is not already, and returns
// its BFGS blocks, one per stage: after a Solve, the blocks it ended
// with. The blocks alias the workspace, so a caller that snapshots its
// solver state reads them and one that restores it writes them; they
// are valid until the next Solve with this workspace.
func (w *Workspace) Hessian(p *Problem) []*mat.Dense {
	stages := max(p.Stages, 1)
	nx := 0
	if stages > 1 {
		nx = p.NX
	}
	w.ensure(p.N, p.MEq, p.MIneq, stages, nx)
	return w.b
}
