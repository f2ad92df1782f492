// Package qp solves convex quadratic programs
//
//	minimize    ½ xᵀH x + cᵀx
//	subject to  Aeq·x = beq
//	            Ain·x ≤ bin
//
// with a primal-dual interior-point method using Mehrotra's
// predictor-corrector. This is the workhorse under the SQP solver: each SQP
// iteration linearizes the HVAC dynamics and hands the resulting QP here.
// An interior-point method was chosen over active-set because it needs no
// feasible starting point — SQP subproblems are frequently infeasible at
// the current iterate — and its iteration count is nearly independent of
// the number of inequality constraints (the MPC has ten per horizon step).
// Every Newton system factors by one backward Riccati recursion over the
// problem's stage layout (see Problem).
package qp

import (
	"errors"
	"fmt"
	"math"

	"evclimate/internal/mat"
)

// Status describes how Solve terminated.
type Status int

const (
	// Optimal means all KKT residuals met the tolerance.
	Optimal Status = iota
	// MaxIterations means the iteration limit was hit; Result.X holds the
	// best iterate and may still be useful as a warm start.
	MaxIterations
	// NumericalFailure means a linear solve failed irrecoverably; Solve's
	// error wraps ErrIndefinite when an indefinite Hessian block caused
	// it.
	NumericalFailure
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case MaxIterations:
		return "max-iterations"
	case NumericalFailure:
		return "numerical-failure"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ErrBadProblem is returned for structurally invalid problems
// (dimension mismatches, missing Hessian, non-finite data).
var ErrBadProblem = errors.New("qp: invalid problem")

// Problem is a convex QP over N stages of NV variables, the MPC's
// receding-horizon layout (see StageMatrix): H holds the N NV×NV blocks
// of the block-diagonal, positive semidefinite Hessian, and Aeq/Ain are
// stage matrices of the same layout and state width, nil when there are
// no such rows.
//
// The KKT system factors by a Riccati recursion over the stage state
// (stageKKT), in O(N·NV³) instead of O((N·NV)³); every equality row
// needs a coefficient on its own stage's variables. A one-stage problem
// is the unstructured QP: the recursion is then a Cholesky factorization
// of its Hessian block and of the equality rows' Schur complement.
type Problem struct {
	H   []*mat.Dense
	C   []float64
	Aeq *StageMatrix
	Beq []float64
	Ain *StageMatrix
	Bin []float64
}

// The interior-point iteration limit and the static diagonal
// regularization added to the KKT system. The regularization keeps the
// factorization well-posed when H is only positive semidefinite, and it
// is the same at every stage count, so a multi-stage problem and its
// OneStage form solve the identical linear system.
const (
	maxIter = 60
	kktReg  = 1e-9
)

// Options tunes the solver. The zero value selects defaults.
type Options struct {
	// Tol is the KKT residual and complementarity tolerance (default 1e-8).
	Tol float64
	// Work, when non-nil, is a reusable solver workspace: repeated Solve
	// calls with same-shaped problems perform no allocation, and the
	// slices in the returned Result alias the workspace (valid until the
	// next Solve with that workspace). Nil keeps the allocating behaviour.
	Work *Workspace
}

func (o *Options) fill() {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
}

// Result is the solver output.
type Result struct {
	// X is the primal solution.
	X []float64
	// EqDuals are the multipliers of the equality constraints.
	EqDuals []float64
	// InDuals are the (nonnegative) multipliers of the inequalities.
	InDuals []float64
	// Objective is ½xᵀHx + cᵀx at X.
	Objective float64
	// Iterations is the number of interior-point iterations performed.
	Iterations int
	// Status reports the termination condition.
	Status Status
	// PrimalInfeas and DualInfeas are the final scaled residual norms.
	PrimalInfeas, DualInfeas float64
	// Factorizations counts the KKT systems factored, one per Newton
	// step (the equality-only shortcut factors one).
	Factorizations int
}

func (p *Problem) validate() (n, meq, min int, err error) {
	if len(p.H) == 0 || p.H[0] == nil {
		return 0, 0, 0, fmt.Errorf("%w: nil Hessian", ErrBadProblem)
	}
	nv, _ := p.H[0].Dims()
	for k, b := range p.H {
		if b == nil {
			return 0, 0, 0, fmt.Errorf("%w: nil Hessian block %d", ErrBadProblem, k)
		}
		if r, c := b.Dims(); r != nv || c != nv {
			return 0, 0, 0, fmt.Errorf("%w: Hessian block %d is %d×%d, want %d×%d", ErrBadProblem, k, r, c, nv, nv)
		}
		// A NaN in H poisons the KKT factorization and surfaces as a
		// confusing NumericalFailure deep in the iteration loop.
		if !b.AllFinite() {
			return 0, 0, 0, fmt.Errorf("%w: non-finite Hessian", ErrBadProblem)
		}
	}
	n = len(p.H) * nv
	if len(p.C) != n {
		return 0, 0, 0, fmt.Errorf("%w: len(C)=%d, want %d", ErrBadProblem, len(p.C), n)
	}
	if meq, err = p.Aeq.check("equality", len(p.H), nv, p.Beq); err != nil {
		return 0, 0, 0, err
	}
	if min, err = p.Ain.check("inequality", len(p.H), nv, p.Bin); err != nil {
		return 0, 0, 0, err
	}
	if p.Aeq != nil && p.Ain != nil && len(p.H) > 1 && p.Aeq.nx != p.Ain.nx {
		return 0, 0, 0, fmt.Errorf("%w: equality rows reach %d state columns, inequality rows %d", ErrBadProblem, p.Aeq.nx, p.Ain.nx)
	}
	if !mat.AllFinite(p.C) {
		return 0, 0, 0, fmt.Errorf("%w: non-finite data", ErrBadProblem)
	}
	return n, meq, min, nil
}

// check validates a constraint block against the Hessian's stage layout
// and its right-hand side b, returning the row count.
func (a *StageMatrix) check(kind string, stages, nv int, b []float64) (int, error) {
	if a == nil {
		if len(b) != 0 {
			return 0, fmt.Errorf("%w: %s right-hand side without a matrix", ErrBadProblem, kind)
		}
		return 0, nil
	}
	if a.n != stages || a.nv != nv {
		return 0, fmt.Errorf("%w: %s matrix has %d stages of %d variables, Hessian %d of %d", ErrBadProblem, kind, a.n, a.nv, stages, nv)
	}
	rows, _ := a.Dims()
	if len(b) != rows {
		return 0, fmt.Errorf("%w: %s block has %d rows, right-hand side %d", ErrBadProblem, kind, rows, len(b))
	}
	if !mat.AllFinite(a.data) || !mat.AllFinite(b) {
		return 0, fmt.Errorf("%w: non-finite %s data", ErrBadProblem, kind)
	}
	return rows, nil
}

// stateCols returns the state width nx of the stage layout (0 without
// constraint rows, whose stages do not couple).
func (p *Problem) stateCols() int {
	switch {
	case p.Aeq != nil:
		return p.Aeq.nx
	case p.Ain != nil:
		return p.Ain.nx
	}
	return 0
}

// mulH computes dst = H·x block by block.
func (p *Problem) mulH(x, dst []float64) []float64 {
	o := 0
	for _, b := range p.H {
		nv, _ := b.Dims()
		b.MulVecInto(x[o:o+nv], dst[o:o+nv])
		o += nv
	}
	return dst
}

// objectiveInto evaluates ½xᵀHx + cᵀx using hx as the H·x scratch buffer.
func (p *Problem) objectiveInto(x, hx []float64) float64 {
	return 0.5*mat.Dot(x, p.mulH(x, hx)) + mat.Dot(p.C, x)
}

// OneStage returns p as a one-stage problem over the same data: the
// block-diagonal Hessian as one dense block and full-width constraint
// rows, so the recursion sees no stage structure and factors the whole
// Newton system as stage 0. Tests and benchmarks use it as the
// reference the multi-stage factorization is checked against.
func (p *Problem) OneStage() *Problem {
	nv, _ := p.H[0].Dims()
	h := mat.NewDense(len(p.H)*nv, len(p.H)*nv)
	for k, b := range p.H {
		for i := 0; i < nv; i++ {
			copy(h.RawRow(k*nv + i)[k*nv:], b.RawRow(i))
		}
	}
	return &Problem{H: []*mat.Dense{h}, C: p.C, Aeq: p.Aeq.oneStage(), Beq: p.Beq, Ain: p.Ain.oneStage(), Bin: p.Bin}
}

// Solve minimizes the QP. See the package comment for the method.
func Solve(p *Problem, opt Options) (*Result, error) {
	opt.fill()
	n, meq, min, err := p.validate()
	if err != nil {
		return nil, err
	}
	ws := opt.Work
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensure(n, meq, min)
	x := ws.x
	y := ws.y
	for i := range x {
		x[i] = 0
	}
	for i := range y {
		y[i] = 0
	}

	kkt := &ws.kkt
	kkt.ensure(p)

	// No inequalities: the problem reduces to a single KKT solve.
	if min == 0 {
		return solveEquality(p, ws)
	}

	// Interior-point state.
	s := ws.s // slacks for Ain·x + s = bin
	z := ws.z // inequality duals
	for i := range s {
		s[i] = 1
		z[i] = 1
	}

	// Warm-ish start: shift slacks so s = max(bin − Ain·x, 1).
	ax := p.Ain.MulVecInto(x, ws.ax)
	for i := 0; i < min; i++ {
		if v := p.Bin[i] - ax[i]; v > 1 {
			s[i] = v
		}
	}

	hMax := 0.0
	for _, b := range p.H {
		hMax = math.Max(hMax, b.MaxAbs())
	}
	scale := 1 + mat.NormInf(p.C) + hMax
	bScale := 1 + mat.NormInf(p.Beq) + mat.NormInf(p.Bin)

	rd := ws.rd
	rp := ws.rp
	rc := ws.rc
	rsz := ws.rsz

	res := &ws.res
	*res = Result{Status: MaxIterations}
	var cause error // the factorization error that ended the solve
	// hist holds the (dual residual, μ) pairs of recent iterations, newest
	// first; once they show a cycle, commonStep stays set for the solve.
	var hist [2 * cycleMaxPeriod][2]float64
	commonStep := false
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1

		// Residuals.
		hx := p.mulH(x, ws.hx)
		for i := 0; i < n; i++ {
			rd[i] = hx[i] + p.C[i]
		}
		if meq > 0 {
			mat.Axpy(1, p.Aeq.MulVecTInto(y, ws.tmpN), rd)
			aeqx := p.Aeq.MulVecInto(x, ws.aeqx)
			for i := 0; i < meq; i++ {
				rp[i] = aeqx[i] - p.Beq[i]
			}
		}
		mat.Axpy(1, p.Ain.MulVecTInto(z, ws.tmpN), rd)
		ainx := p.Ain.MulVecInto(x, ws.ax)
		for i := 0; i < min; i++ {
			rc[i] = ainx[i] + s[i] - p.Bin[i]
		}
		mu := mat.Dot(s, z) / float64(min)

		res.DualInfeas = mat.NormInf(rd) / scale
		res.PrimalInfeas = math.Max(mat.NormInf(rp), mat.NormInf(rc)) / bScale
		if res.DualInfeas < opt.Tol && res.PrimalInfeas < opt.Tol && mu < opt.Tol {
			res.Status = Optimal
			break
		}

		copy(hist[1:], hist[:len(hist)-1])
		hist[0] = [2]float64{res.DualInfeas, mu}
		if !commonStep && iter >= len(hist) {
			commonStep = cycling(&hist)
		}

		// The barrier weights d = z/s feed the KKT factors; a nonpositive
		// or non-finite ratio means the iterate is beyond repair.
		badD := false
		for k := 0; k < min; k++ {
			d := z[k] / s[k]
			if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				badD = true
				break
			}
		}
		if badD {
			res.Status = NumericalFailure
			break
		}

		// Assemble and factor the regularized Newton system
		//   [ H + AinᵀD Ain + regI    Aeqᵀ  ] [dx]   [−r1]
		//   [ Aeq                    −regI  ] [dy] = [−rp]
		// with D = diag(z/s). A failed factorization ends the solve.
		res.Factorizations++
		if cause = kkt.factor(p, z, s); cause != nil {
			res.Status = NumericalFailure
			break
		}

		solveStep := func(rszLocal, dx, dy, ds, dz []float64) {
			// r1 = rd + Ainᵀ S⁻¹ (Z·rc − rsz)
			tmp := ws.tmpMin
			for k := 0; k < min; k++ {
				tmp[k] = (z[k]*rc[k] - rszLocal[k]) / s[k]
			}
			r1 := p.Ain.MulVecTInto(tmp, ws.r1)
			mat.Axpy(1, rd, r1)
			rhs1 := mat.ScaleVecInto(ws.rhs1, -1, r1)
			rhs2 := mat.ScaleVecInto(ws.rhs2, -1, rp)
			kkt.solveInto(rhs1, rhs2, dx, dy)
			aindx := p.Ain.MulVecInto(dx, ws.aindx)
			for k := 0; k < min; k++ {
				ds[k] = -rc[k] - aindx[k]
				dz[k] = -(rszLocal[k] + z[k]*ds[k]) / s[k]
			}
		}

		// Affine (predictor) step: rsz = s∘z.
		for k := 0; k < min; k++ {
			rsz[k] = s[k] * z[k]
		}
		dsA, dzA := ws.dsA, ws.dzA
		solveStep(rsz, ws.dxA, ws.dyA, dsA, dzA)
		alphaP := maxStep(s, dsA)
		alphaD := maxStep(z, dzA)
		var muAff float64
		for k := 0; k < min; k++ {
			muAff += (s[k] + alphaP*dsA[k]) * (z[k] + alphaD*dzA[k])
		}
		muAff /= float64(min)
		sigma := math.Pow(muAff/mu, 3)
		if math.IsNaN(sigma) || sigma > 1 {
			sigma = 1
		}

		// Corrector step: rsz = s∘z + dsA∘dzA − σμ.
		for k := 0; k < min; k++ {
			rsz[k] = s[k]*z[k] + dsA[k]*dzA[k] - sigma*mu
		}
		dx, dy, ds, dz := ws.dx, ws.dy, ws.ds, ws.dz
		solveStep(rsz, dx, dy, ds, dz)
		if !mat.AllFinite(dx) || !mat.AllFinite(ds) || !mat.AllFinite(dz) {
			res.Status = NumericalFailure
			break
		}

		alphaP = 0.995 * maxStep(s, ds)
		alphaD = 0.995 * maxStep(z, dz)
		alphaP = math.Min(1, alphaP)
		alphaD = math.Min(1, alphaD)
		if commonStep {
			alphaP = math.Min(alphaP, alphaD)
			alphaD = alphaP
		}

		mat.Axpy(alphaP, dx, x)
		mat.Axpy(alphaP, ds, s)
		if meq > 0 {
			mat.Axpy(alphaD, dy, y)
		}
		mat.Axpy(alphaD, dz, z)
	}

	res.X = x
	res.EqDuals = y
	res.InDuals = z
	res.Objective = p.objectiveInto(x, ws.hx)
	if res.Status == NumericalFailure {
		if cause != nil {
			return res, fmt.Errorf("qp: numerical failure after %d iterations: %w", res.Iterations, cause)
		}
		return res, fmt.Errorf("qp: numerical failure after %d iterations", res.Iterations)
	}
	return res, nil
}

// cycleMaxPeriod is the longest step-length cycle the solver detects.
// Separate primal and dual step lengths do not shrink the dual residual
// of a QP with nonzero H, and on some well-posed QPs the two lengths
// alternate into a period-4 orbit that never meets the tolerance. A
// detected cycle switches the rest of the solve to one common step
// length; iterations that never cycle are unaffected.
const cycleMaxPeriod = 4

// cycling reports a periodic orbit in h, newest first: for some period
// p ∈ [2, cycleMaxPeriod], each of the last p (rd, μ) pairs lies within
// 1 % of the pair p iterations before it and more than 10 % away from
// its predecessor. Converging, stalled and diverging iterations fail
// one of the two tests.
func cycling(h *[2 * cycleMaxPeriod][2]float64) bool {
	near := func(a, b [2]float64, tol float64) bool {
		return math.Abs(a[0]-b[0]) <= tol*a[0] && math.Abs(a[1]-b[1]) <= tol*a[1]
	}
	for p := 2; p <= cycleMaxPeriod; p++ {
		periodic := true
		for j := 0; j < p && periodic; j++ {
			periodic = near(h[j], h[j+p], 0.01) && !near(h[j], h[j+1], 0.1)
		}
		if periodic {
			return true
		}
	}
	return false
}

// maxStep returns the largest α in (0, 1e30] with v + α·dv ≥ 0 componentwise.
func maxStep(v, dv []float64) float64 {
	alpha := 1e30
	for i, d := range dv {
		if d < 0 {
			if a := -v[i] / d; a < alpha {
				alpha = a
			}
		}
	}
	return alpha
}

// solveEquality handles the inequality-free case by solving the KKT system
//
//	[H + regI   Aeqᵀ ] [x]   [−c ]
//	[Aeq       −regI ] [y] = [beq]
//
// once.
func solveEquality(p *Problem, ws *Workspace) (*Result, error) {
	res := &ws.res
	if err := ws.kkt.factor(p, nil, nil); err != nil {
		*res = Result{X: ws.x, EqDuals: ws.y, Status: NumericalFailure, Factorizations: 1}
		return res, fmt.Errorf("qp: singular KKT system: %w", err)
	}
	ws.kkt.solveInto(mat.ScaleVecInto(ws.rhs1, -1, p.C), p.Beq, ws.x, ws.y)
	*res = Result{
		X:              ws.x,
		EqDuals:        ws.y,
		Iterations:     1,
		Status:         Optimal,
		Factorizations: 1,
	}
	res.Objective = p.objectiveInto(res.X, ws.hx)
	return res, nil
}
