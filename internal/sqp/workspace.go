package sqp

import (
	"evclimate/internal/mat"
	"evclimate/internal/qp"
)

// Workspace is the SQP solver's arena: every vector and matrix the major
// iteration touches — the Lagrangian gradient scratch, the double-buffered
// iterate/gradient/constraint/Jacobian pairs that swap on each accepted
// step, the BFGS Hessian and its update scratch, the line-search trial
// point, the QP subproblem views, and the (lazily sized) elastic-fallback
// problem. Pass it via Options.Work to make repeated Solve calls with
// same-shaped problems allocation-free; the MPC controller owns one per
// instance and reuses it every control step.
//
// A Workspace is not safe for concurrent use. When Options.Work is
// non-nil, the slices in the returned Result alias the workspace and are
// only valid until the next Solve call with that workspace; callers that
// retain them must copy.
type Workspace struct {
	n, meq, min int

	// Double-buffered iterate state: locals swap on accepted steps.
	x, xNew    []float64
	g, gNew    []float64
	ce, ceNew  []float64
	ci, ciNew  []float64
	je, jeNew  *mat.Dense // nil when meq == 0
	ji, jiNew  *mat.Dense // nil when min == 0
	lam, lamNV []float64  // multipliers + incoming QP duals
	mu, muNV   []float64

	lagGrad, tmpN []float64
	d             []float64 // QP step copy (stable across the elastic fallback)
	yVec, sVec    []float64
	bs, bfgsR     []float64 // updateBFGS scratch
	b             *mat.Dense

	// Finite-difference / evaluator scratch.
	xt             []float64
	fdBase, fdPert []float64

	// QP subproblem: the Problem view is rebuilt each iteration (the
	// Hessian, gradient and Jacobians swap buffers), the negated
	// right-hand sides and the inner workspace persist.
	sub            qp.Problem
	beqNeg, binNeg []float64
	qpWork         *qp.Workspace

	// Elastic fallback arena, sized on first use.
	el *elasticArena

	res Result
}

// NewWorkspace returns an empty workspace; buffers are sized on first
// use and re-sized only when the problem dimensions change.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the workspace for problem p.
func (w *Workspace) ensure(p *Problem) {
	n, meq, min := p.N, p.MEq, p.MIneq
	if w.n == n && w.meq == meq && w.min == min && w.x != nil {
		return
	}
	w.n, w.meq, w.min = n, meq, min
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
		w.je = mat.NewDense(meq, n)
		w.jeNew = mat.NewDense(meq, n)
	}
	w.ji, w.jiNew = nil, nil
	if min > 0 {
		w.ji = mat.NewDense(min, n)
		w.jiNew = mat.NewDense(min, n)
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
	w.b = mat.NewDense(n, n)
	w.xt = make([]float64, n)
	m := meq
	if min > m {
		m = min
	}
	if m > 0 {
		w.fdBase = make([]float64, m)
		w.fdPert = make([]float64, m)
	}
	w.beqNeg = make([]float64, meq)
	w.binNeg = make([]float64, min)
	if w.qpWork == nil {
		w.qpWork = qp.NewWorkspace()
	}
	w.el = nil
}

// elasticArena holds the slack-augmented fallback QP (see solveElastic):
// the augmented Hessian, gradient, constraint blocks, and a dedicated QP
// workspace (the elastic problem has different dimensions than the main
// subproblem, so it cannot share the main QP workspace).
type elasticArena struct {
	nTot, rows int
	h          *mat.Dense
	c          []float64
	aeq        *mat.Dense // nil when meq == 0
	ain        *mat.Dense
	bin        []float64
	qpWork     *qp.Workspace
	out        qp.Result
}

// ensure sizes the arena for an elastic problem with nTot variables, meq
// equality rows and rows inequality rows.
func (a *elasticArena) ensure(nTot, meq, rows int) {
	ar := rows
	if ar < 1 {
		ar = 1
	}
	if a.nTot == nTot && a.rows == rows && a.h != nil {
		a.h.Zero()
		if a.aeq != nil {
			a.aeq.Zero()
		}
		a.ain.Zero()
		return
	}
	a.nTot, a.rows = nTot, rows
	a.h = mat.NewDense(nTot, nTot)
	a.c = make([]float64, nTot)
	a.aeq = nil
	if meq > 0 {
		a.aeq = mat.NewDense(meq, nTot)
	}
	a.ain = mat.NewDense(ar, nTot)
	a.bin = make([]float64, ar)
	if a.qpWork == nil {
		a.qpWork = qp.NewWorkspace()
	}
}
