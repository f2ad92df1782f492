// Package sqp implements a Sequential Quadratic Programming solver for
// smooth nonlinear programs
//
//	minimize    f(x)
//	subject to  ce(x) = 0
//	            ci(x) ≤ 0
//
// using a damped-BFGS approximation of the Lagrangian Hessian, convex QP
// subproblems (internal/qp) and an ℓ₁ merit function with backtracking
// line search, plus a second-order correction through the caller's
// Problem.Restore when it has one. The caller states every first
// derivative analytically. The paper prescribes exactly this algorithm
// class for the MPC step ("the best option might be to apply Sequential
// Quadratic Programming (SQP) as the optimization algorithm for the MPC
// in each time step", Sec. III, citing Kelman & Borrelli).
//
// Solve assumes every linearized subproblem has a feasible point; a
// caller whose constraints can become unreachable softens them with
// priced slacks in the problem itself, as the MPC does for its comfort
// bounds. A subproblem the QP solver cannot solve ends Solve as Failed.
// A subproblem that ends at the QP iteration cap is still taken as the
// step, and Result.CappedQPs counts it.
package sqp

import (
	"errors"
	"fmt"
	"math"

	"evclimate/internal/mat"
	"evclimate/internal/qp"
)

// Status describes how Solve terminated.
type Status int

const (
	// Converged means the KKT conditions were met to tolerance.
	Converged Status = iota
	// MaxIterations means the iteration budget ran out; X holds the best
	// iterate found.
	MaxIterations
	// Stalled means the line search could not make progress. The iterate
	// is usually still useful (MPC treats it as a warm start).
	Stalled
	// Failed means a subproblem failed irrecoverably.
	Failed
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Converged:
		return "converged"
	case MaxIterations:
		return "max-iterations"
	case Stalled:
		return "stalled"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ErrBadProblem reports a structurally invalid problem definition.
var ErrBadProblem = errors.New("sqp: invalid problem")

// Problem defines the NLP. Objective and Gradient are required; Eq and
// EqJac are required when MEq > 0, Ineq and IneqJac when MIneq > 0.
// Variables and rows divide evenly into Stages receding-horizon stages
// whose last NX variables are the stage state: the Jacobians are
// qp.StageMatrix values whose stage-k rows reach back only to that
// state, and the BFGS Hessian stays block diagonal, so every QP
// subproblem factors by a Riccati recursion over the state.
type Problem struct {
	// N is the number of decision variables.
	N int
	// Objective evaluates f(x).
	Objective func(x []float64) float64
	// Gradient writes ∇f(x) into grad.
	Gradient func(x []float64, grad []float64)
	// MEq is the number of equality constraints ce(x) = 0.
	MEq int
	// Eq writes ce(x) into out (length MEq).
	Eq func(x []float64, out []float64)
	// EqJac writes the MEq×N Jacobian of Eq into jac.
	EqJac func(x []float64, jac *qp.StageMatrix)
	// MIneq is the number of inequality constraints ci(x) ≤ 0.
	MIneq int
	// Ineq writes ci(x) into out (length MIneq).
	Ineq func(x []float64, out []float64)
	// IneqJac writes the MIneq×N Jacobian of Ineq into jac.
	IneqJac func(x []float64, jac *qp.StageMatrix)
	// Restore, when non-nil, overwrites the dependent variables of x in
	// place so that Eq(x) = 0, leaving the others as they are; an MPC
	// does this by simulating its prediction model forward from the
	// planned inputs. Solve uses it as a second-order correction: a unit
	// step x + d that fails the line search's merit test is restored and
	// taken if the restored point passes the same test, which undoes the
	// curvature error of linearized equality rows (the Maratos effect;
	// Nocedal & Wright, Numerical Optimization, §15.5–15.6).
	Restore func(x []float64)
	// Stages is the stage count; 0 means 1, the unstructured NLP.
	Stages int
	// NX is the number of state variables that end each stage, the only
	// columns of stage k−1 that the rows of stage k may touch (0: the
	// stages do not couple). It is ignored for one stage.
	NX int
}

// penaltyInit seeds the ℓ₁ merit penalty.
const penaltyInit = 1.0

// Options tunes the solver; the zero value selects defaults.
type Options struct {
	// MaxIter limits major (SQP) iterations. Default 100. A solve that
	// runs out reports Status MaxIterations with the last iterate in X,
	// which is how a real-time caller truncates a solve to its budget.
	MaxIter int
	// Tol is the KKT tolerance. Default 1e-6.
	Tol float64
	// MinMeritDecrease, when positive, stops the iteration early once
	// the relative merit-function decrease stays below it for two
	// consecutive accepted steps AND the iterate is feasible to Tol.
	// Real-time MPC sets this to trade optimality for speed; the default
	// 0 disables it.
	MinMeritDecrease float64
	// Work, when non-nil, is a reusable solver workspace: repeated Solve
	// calls with same-shaped problems perform no per-iteration allocation,
	// and the slices in the returned Result alias the workspace (valid
	// until the next Solve with that workspace). Nil keeps the allocating
	// behaviour.
	Work *Workspace
}

func (o *Options) fill() {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
}

// Result is the solver output.
type Result struct {
	// X is the final iterate.
	X []float64
	// F is the objective at X.
	F float64
	// EqDuals and InDuals are the Lagrange multiplier estimates.
	EqDuals, InDuals []float64
	// Iterations counts major iterations performed.
	Iterations int
	// QPIterations accumulates the interior-point iterations of every QP
	// subproblem solved — the telemetry layer's measure of per-solve work
	// below the major-iteration count.
	QPIterations int
	// Factorizations sums the KKT factorizations of every QP subproblem
	// (qp.Result.Factorizations).
	Factorizations int
	// CappedQPs counts the QP subproblems that ended at the interior
	// point's iteration cap (qp.MaxIterations); their iterates were still
	// taken as steps.
	CappedQPs int
	// Corrections counts the steps taken through Problem.Restore: unit
	// steps that failed the merit test and passed it once restored.
	Corrections int
	// Status reports the termination condition.
	Status Status
	// MaxViolation is the final constraint violation (∞-norm).
	MaxViolation float64
}

type evaluator struct {
	p *Problem
}

// gradientInto writes ∇f(x) into g (a workspace buffer), zeroed before
// the Gradient callback runs.
func (e *evaluator) gradientInto(x, g []float64) []float64 {
	for i := range g {
		g[i] = 0
	}
	e.p.Gradient(x, g)
	return g
}

// eqInto evaluates ce(x) into out; it returns nil when there are no
// equality constraints.
func (e *evaluator) eqInto(x, out []float64) []float64 {
	if e.p.MEq == 0 {
		return nil
	}
	for i := range out {
		out[i] = 0
	}
	e.p.Eq(x, out)
	return out
}

// ineqInto evaluates ci(x) into out; it returns nil when there are no
// inequality constraints.
func (e *evaluator) ineqInto(x, out []float64) []float64 {
	if e.p.MIneq == 0 {
		return nil
	}
	for i := range out {
		out[i] = 0
	}
	e.p.Ineq(x, out)
	return out
}

// eqJacInto writes the equality Jacobian into jac (a workspace matrix,
// zeroed first so sparse callbacks keep their fresh-matrix contract).
func (e *evaluator) eqJacInto(x []float64, jac *qp.StageMatrix) *qp.StageMatrix {
	if e.p.MEq == 0 {
		return nil
	}
	jac.Zero()
	e.p.EqJac(x, jac)
	return jac
}

// ineqJacInto writes the inequality Jacobian into jac.
func (e *evaluator) ineqJacInto(x []float64, jac *qp.StageMatrix) *qp.StageMatrix {
	if e.p.MIneq == 0 {
		return nil
	}
	jac.Zero()
	e.p.IneqJac(x, jac)
	return jac
}

// violation returns the ℓ∞ constraint violation.
func violation(ce, ci []float64) float64 {
	v := mat.NormInf(ce)
	for _, c := range ci {
		if c > v {
			v = c
		}
	}
	return v
}

// merit evaluates the ℓ₁ exact penalty function f + ν·(‖ce‖₁ + Σ max(ci, 0)).
func merit(f float64, ce, ci []float64, nu float64) float64 {
	var pen float64
	for _, c := range ce {
		pen += math.Abs(c)
	}
	for _, c := range ci {
		if c > 0 {
			pen += c
		}
	}
	return f + nu*pen
}

// sufficient is the Armijo test of a trial merit phi against phi0 with
// predicted decrease pred (≤ 0), or any relative decrease above rounding.
func sufficient(phi, phi0, pred float64) bool {
	return phi <= phi0+1e-4*pred || phi < phi0-1e-12*math.Abs(phi0)
}

// at evaluates f, ce and ci at x, the constraints into ce and ci.
func (e *evaluator) at(x, ce, ci []float64) (float64, []float64, []float64) {
	return e.p.Objective(x), e.eqInto(x, ce), e.ineqInto(x, ci)
}

// kktResidual computes the ∞-norm of the Lagrangian gradient
// ∇f + Jeᵀλ + Jiᵀμ using workspace scratch.
func kktResidual(ws *Workspace, g []float64, je, ji *qp.StageMatrix, lam, mu []float64) float64 {
	copy(ws.lagGrad, g)
	if je != nil {
		je.MulVecTInto(lam, ws.tmpN)
		mat.Axpy(1, ws.tmpN, ws.lagGrad)
	}
	if ji != nil {
		ji.MulVecTInto(mu, ws.tmpN)
		mat.Axpy(1, ws.tmpN, ws.lagGrad)
	}
	return mat.NormInf(ws.lagGrad)
}

// Solve runs the SQP iteration from x0.
func Solve(p *Problem, x0 []float64, opt Options) (*Result, error) {
	opt.fill()
	if p.N <= 0 || p.Objective == nil || p.Gradient == nil {
		return nil, fmt.Errorf("%w: need N > 0, an Objective and its Gradient", ErrBadProblem)
	}
	if len(x0) != p.N {
		return nil, fmt.Errorf("%w: len(x0)=%d, want %d", ErrBadProblem, len(x0), p.N)
	}
	if p.MEq > 0 && (p.Eq == nil || p.EqJac == nil) {
		return nil, fmt.Errorf("%w: MEq=%d needs Eq and EqJac", ErrBadProblem, p.MEq)
	}
	if p.MIneq > 0 && (p.Ineq == nil || p.IneqJac == nil) {
		return nil, fmt.Errorf("%w: MIneq=%d needs Ineq and IneqJac", ErrBadProblem, p.MIneq)
	}
	stages := max(p.Stages, 1)
	if p.N%stages != 0 || p.MEq%stages != 0 || p.MIneq%stages != 0 {
		return nil, fmt.Errorf("%w: %d stages do not divide N=%d, MEq=%d, MIneq=%d", ErrBadProblem, stages, p.N, p.MEq, p.MIneq)
	}
	nx := 0
	if stages > 1 {
		nx = p.NX
		if nx < 0 || nx > p.N/stages {
			return nil, fmt.Errorf("%w: NX=%d outside [0, %d]", ErrBadProblem, nx, p.N/stages)
		}
	}
	ws := opt.Work
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensure(p.N, p.MEq, p.MIneq, stages, nx)
	ev := &evaluator{p: p}

	// Double-buffered iterate state: the locals holding the current point
	// and its derivatives swap with their *New partners on every accepted
	// step, so the two workspace buffers of each pair alternate roles and
	// nothing is reallocated.
	x, xNew := ws.x, ws.xNew
	copy(x, x0)
	f := p.Objective(x)
	g, gNew := ev.gradientInto(x, ws.g), ws.gNew
	ce, ceNew := ev.eqInto(x, ws.ce), ws.ceNew
	ci, ciNew := ev.ineqInto(x, ws.ci), ws.ciNew
	je, jeNew := ev.eqJacInto(x, ws.je), ws.jeNew
	ji, jiNew := ev.ineqJacInto(x, ws.ji), ws.jiNew
	if p.MEq == 0 {
		ceNew = nil
	}
	if p.MIneq == 0 {
		ciNew = nil
	}

	// Damped-BFGS Hessian approximation, one block per stage, seeded
	// with a scaled identity unless ShiftHessian carried the previous
	// solve's blocks into this one.
	if !ws.shifted {
		resetBFGS(ws.b, 1+mat.NormInf(g))
	}
	ws.shifted = false

	lam, lamNew := ws.lam, ws.lamNV
	mu, muNew := ws.mu, ws.muNV
	for i := range lam {
		lam[i] = 0
	}
	for i := range mu {
		mu[i] = 0
	}
	nu := penaltyInit

	res := &ws.res
	*res = Result{Status: MaxIterations}
	var subErr error // the subproblem failure that ended the solve
	stagnant := 0
	for iter := 0; iter < opt.MaxIter; iter++ {
		res.Iterations = iter + 1

		// Convergence check: KKT stationarity + feasibility + complementarity.
		kkt := kktResidual(ws, g, je, ji, lam, mu)
		viol := violation(ce, ci)
		var comp float64
		for i, m := range mu {
			if c := math.Abs(m * ci[i]); c > comp {
				comp = c
			}
		}
		res.MaxViolation = viol
		gScale := 1 + mat.NormInf(g)
		if kkt < opt.Tol*gScale && viol < opt.Tol && comp < opt.Tol*gScale {
			res.Status = Converged
			break
		}

		// QP subproblem: min ½dᵀBd + gᵀd  s.t.  Je·d = −ce, Ji·d ≤ −ci.
		sub := &ws.sub
		*sub = qp.Problem{H: ws.b, C: g}
		if je != nil {
			sub.Aeq = je
			sub.Beq = mat.ScaleVecInto(ws.beqNeg, -1, ce)
		}
		if ji != nil {
			sub.Ain = ji
			sub.Bin = mat.ScaleVecInto(ws.binNeg, -1, ci)
		}
		// Subproblem tolerance: two orders tighter than the NLP tolerance
		// is enough for SQP convergence; floor at 1e-8 for high-accuracy
		// callers. (Solving subproblems to 1e-8 when the NLP only needs
		// 1e-4 wastes interior-point iterations in the MPC hot path.)
		qpTol := opt.Tol * 1e-2
		if qpTol < 1e-8 {
			qpTol = 1e-8
		}
		qr, err := solveSubproblem(ws, sub, qp.Options{Tol: qpTol, Work: ws.qpWork}, 1+mat.NormInf(g), res)
		if err != nil {
			res.Status = Failed
			subErr = err
			break
		}
		// Copy the step and duals out of the QP workspace: qr's slices
		// alias it and the next iteration's solve overwrites them.
		d := ws.d
		copy(d, qr.X)
		for i := range lamNew {
			lamNew[i] = 0
		}
		copy(lamNew, qr.EqDuals)
		for i := range muNew {
			muNew[i] = 0
		}
		copy(muNew, qr.InDuals)

		// Penalty update: ν must dominate the multipliers for the ℓ₁
		// merit to be exact.
		maxDual := mat.NormInf(lamNew)
		if m := mat.NormInf(muNew); m > maxDual {
			maxDual = m
		}
		if nu < 1.1*maxDual {
			nu = 1.5*maxDual + 1
		}

		// Directional derivative of the merit function.
		dirDeriv := mat.Dot(g, d)
		var pen float64
		for _, c := range ce {
			pen += math.Abs(c)
		}
		for _, c := range ci {
			if c > 0 {
				pen += c
			}
		}
		dirDeriv -= nu * pen

		// Backtracking Armijo line search on the merit function. A unit
		// step that fails the test gets one second-order correction: the
		// restored point is taken if it passes, and otherwise the search
		// backtracks along the uncorrected step.
		phi0 := merit(f, ce, ci, nu)
		alpha := 1.0
		var fNew float64
		accepted := false
		for ls := 0; ls < 30; ls++ {
			mat.ScaleVecInto(xNew, alpha, d)
			mat.Axpy(1, x, xNew)
			fNew, ceNew, ciNew = ev.at(xNew, ceNew, ciNew)
			if sufficient(merit(fNew, ceNew, ciNew, nu), phi0, alpha*dirDeriv) {
				accepted = true
				break
			}
			if ls == 0 && p.Restore != nil {
				p.Restore(xNew)
				fNew, ceNew, ciNew = ev.at(xNew, ceNew, ciNew)
				if sufficient(merit(fNew, ceNew, ciNew, nu), phi0, dirDeriv) {
					res.Corrections++
					accepted = true
					break
				}
			}
			alpha *= 0.5
		}
		if !accepted {
			res.Status = Stalled
			break
		}
		// The displacement actually taken: a corrected step is not α·d.
		sVec := mat.SubVecInto(ws.sVec, xNew, x)
		stepNorm := mat.Norm2(sVec)

		// Early exit for real-time callers: two consecutive steps with
		// negligible merit progress at a feasible iterate mean further
		// polishing is not worth the time budget.
		if opt.MinMeritDecrease > 0 {
			phiNew := merit(fNew, ceNew, ciNew, nu)
			relDec := (phi0 - phiNew) / math.Max(1, math.Abs(phi0))
			if relDec < opt.MinMeritDecrease && violation(ceNew, ciNew) < opt.Tol {
				stagnant++
				if stagnant >= 2 {
					res.Status = Converged
					x, xNew = xNew, x
					f = fNew
					ce, ceNew = ceNew, ce
					ci, ciNew = ciNew, ci
					lam, lamNew = lamNew, lam
					mu, muNew = muNew, mu
					break
				}
			} else {
				stagnant = 0
			}
		}

		// BFGS update with Powell damping on the Lagrangian gradient.
		ev.gradientInto(xNew, gNew)
		jeNew = ev.eqJacInto(xNew, jeNew)
		jiNew = ev.ineqJacInto(xNew, jiNew)
		yVec := mat.SubVecInto(ws.yVec, gNew, g)
		if jeNew != nil {
			jeNew.MulVecTInto(lamNew, ws.tmpN)
			mat.Axpy(1, ws.tmpN, yVec)
			je.MulVecTInto(lamNew, ws.tmpN)
			mat.Axpy(-1, ws.tmpN, yVec)
		}
		if jiNew != nil {
			jiNew.MulVecTInto(muNew, ws.tmpN)
			mat.Axpy(1, ws.tmpN, yVec)
			ji.MulVecTInto(muNew, ws.tmpN)
			mat.Axpy(-1, ws.tmpN, yVec)
		}
		updateBFGSBlocks(ws.b, sVec, yVec, ws.bs, ws.bfgsR)

		x, xNew = xNew, x
		f = fNew
		g, gNew = gNew, g
		ce, ceNew = ceNew, ce
		ci, ciNew = ciNew, ci
		je, jeNew = jeNew, je
		ji, jiNew = jiNew, ji
		lam, lamNew = lamNew, lam
		mu, muNew = muNew, mu

		// Tiny accepted steps near feasibility mean we are done to the
		// achievable precision. The feasibility test uses the accepted
		// iterate's constraint values (post-swap ce/ci), not the stale
		// pre-step violation.
		if stepNorm < 1e-12*(1+mat.Norm2(x)) && violation(ce, ci) < opt.Tol {
			res.Status = Converged
			break
		}
	}

	// Every exit path maintains the invariant that f, ce and ci were
	// evaluated at x, so the cached values are the final ones — no
	// re-evaluation of the objective or constraints is needed here.
	res.X = x
	res.F = f
	res.EqDuals = lam
	res.InDuals = mu
	res.MaxViolation = violation(ce, ci)
	if res.Status == Failed {
		return res, fmt.Errorf("sqp: subproblem failure at iteration %d: %w", res.Iterations, subErr)
	}
	return res, nil
}

// solveSubproblem solves the QP subproblem sub, whose Hessian is the
// BFGS approximation ws.b, and adds its counts to res. A BFGS block that
// lost positive definiteness (qp.ErrIndefinite) fails the factorization:
// the blocks are reset to hScale·I and the subproblem is solved once
// more. Any other failure, or a non-finite step, is returned as an error.
func solveSubproblem(ws *Workspace, sub *qp.Problem, opt qp.Options, hScale float64, res *Result) (*qp.Result, error) {
	qr, err := qp.Solve(sub, opt)
	res.addQP(qr)
	if errors.Is(err, qp.ErrIndefinite) {
		resetBFGS(ws.b, hScale)
		qr, err = qp.Solve(sub, opt)
		res.addQP(qr)
	}
	if err != nil {
		return nil, err
	}
	if !mat.AllFinite(qr.X) {
		return nil, errors.New("sqp: non-finite subproblem step")
	}
	return qr, nil
}

// resetBFGS sets every Hessian block to scale·I.
func resetBFGS(b []*mat.Dense, scale float64) {
	for _, blk := range b {
		blk.Zero()
		nv, _ := blk.Dims()
		for i := 0; i < nv; i++ {
			blk.Set(i, i, scale)
		}
	}
}

// addQP accumulates one QP subproblem's counts (nil: a rejected
// problem, nothing to count).
func (r *Result) addQP(qr *qp.Result) {
	if qr == nil {
		return
	}
	r.QPIterations += qr.Iterations
	r.Factorizations += qr.Factorizations
	if qr.Status == qp.MaxIterations {
		r.CappedQPs++
	}
}

// updateBFGSBlocks applies the damped BFGS update (Powell 1978)
// independently to each diagonal stage block of b; s, y, bs, r are
// full-length vectors (bs, r scratch). Each block update keeps its block
// positive definite, so the block-diagonal approximation stays PD and —
// unlike a dense rank-two update — leaves the QP subproblems in stage
// form for the Riccati recursion. Curvature between stages is
// discarded; that costs some BFGS accuracy but keeps the subproblems
// structured, which is the better trade in the MPC hot path.
func updateBFGSBlocks(b []*mat.Dense, s, y, bs, r []float64) {
	lo := 0
	for _, blk := range b {
		nv, _ := blk.Dims()
		hi := lo + nv
		updateBFGSBlock(blk, s[lo:hi], y[lo:hi], bs[lo:hi], r[lo:hi])
		lo = hi
	}
}

// updateBFGSBlock runs the damped update on one block; s, y, bs, r are
// the corresponding slices. The rank-two update runs on raw row slices
// so the inner loop carries no per-element bounds-check or method-call
// overhead.
func updateBFGSBlock(b *mat.Dense, s, y, bs, r []float64) {
	m := len(s)
	for i := 0; i < m; i++ {
		row := b.RawRow(i)
		var acc float64
		for j, v := range row {
			acc += v * s[j]
		}
		bs[i] = acc
	}
	sBs := mat.Dot(s, bs)
	if sBs <= 0 {
		return
	}
	sy := mat.Dot(s, y)
	theta := 1.0
	if sy < 0.2*sBs {
		theta = 0.8 * sBs / (sBs - sy)
	}
	// r = θ·y + (1−θ)·B·s guarantees sᵀr ≥ 0.2·sᵀBs > 0.
	for i := range r {
		r[i] = theta*y[i] + (1-theta)*bs[i]
	}
	sr := mat.Dot(s, r)
	if sr <= 1e-14*mat.Norm2(s)*mat.Norm2(r) {
		return
	}
	for i := 0; i < m; i++ {
		row := b.RawRow(i)
		ri, bi := r[i], bs[i]
		for j := 0; j < m; j++ {
			row[j] += ri*r[j]/sr - bi*bs[j]/sBs
		}
	}
}
