package qp

// Workspace holds every buffer the interior-point iteration needs: the
// iterate and residual vectors and the stage Riccati factors of the KKT
// system. Factors are reused across the predictor and corrector solves
// of one iteration and re-factorized in place across iterations.
// Pass it via Options.Work to make repeated Solve calls with same-shaped
// problems allocation-free — the MPC solves an identically-shaped QP
// subproblem on every SQP iteration of every control step, so the
// workspace is sized once and reused for the life of the controller.
//
// A Workspace is not safe for concurrent use. When Options.Work is
// non-nil, the slices in the returned Result alias the workspace and are
// only valid until the next Solve call with that workspace; callers that
// retain them must copy.
type Workspace struct {
	n, meq, min int

	x, y, s, z []float64

	rd, rp, rc, rsz []float64
	hx, ax, aeqx    []float64
	tmpN            []float64

	tmpMin, r1, aindx  []float64
	rhs1, rhs2         []float64
	dxA, dyA, dsA, dzA []float64
	dx, dy, ds, dz     []float64

	// kkt factors the Newton system, re-sized with the problem's stage
	// layout.
	kkt stageKKT

	res Result
}

// NewWorkspace returns an empty workspace; buffers are sized on first
// use and re-sized only when the problem dimensions change.
func NewWorkspace() *Workspace { return &Workspace{} }

// NewWorkspaceFor returns a workspace pre-sized for p, its KKT factors
// included, and packs the nonzero lists of p's constraint matrices, so
// even the first Solve performs no allocation. An invalid problem yields an empty workspace
// that sizes itself lazily like NewWorkspace.
func NewWorkspaceFor(p *Problem) *Workspace {
	w := NewWorkspace()
	n, meq, min, err := p.validate()
	if err != nil {
		return w
	}
	w.ensure(n, meq, min)
	w.kkt.ensure(p)
	for _, a := range []*StageMatrix{p.Aeq, p.Ain} {
		if a != nil {
			a.fresh()
		}
	}
	return w
}

// ensure sizes the workspace for an n-variable problem with meq equality
// and min inequality constraints. It is cheap when the dimensions are
// unchanged from the previous call.
func (w *Workspace) ensure(n, meq, min int) {
	if w.n == n && w.meq == meq && w.min == min && w.x != nil {
		return
	}
	w.n, w.meq, w.min = n, meq, min
	w.x = make([]float64, n)
	w.y = make([]float64, meq)
	w.s = make([]float64, min)
	w.z = make([]float64, min)
	w.rd = make([]float64, n)
	w.rp = make([]float64, meq)
	w.rc = make([]float64, min)
	w.rsz = make([]float64, min)
	w.hx = make([]float64, n)
	w.ax = make([]float64, min)
	w.aeqx = make([]float64, meq)
	w.tmpN = make([]float64, n)
	w.tmpMin = make([]float64, min)
	w.r1 = make([]float64, n)
	w.aindx = make([]float64, min)
	w.rhs1 = make([]float64, n)
	w.rhs2 = make([]float64, meq)
	w.dxA = make([]float64, n)
	w.dyA = make([]float64, meq)
	w.dsA = make([]float64, min)
	w.dzA = make([]float64, min)
	w.dx = make([]float64, n)
	w.dy = make([]float64, meq)
	w.ds = make([]float64, min)
	w.dz = make([]float64, min)
}
