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
	// NumericalFailure means a linear solve failed irrecoverably.
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

// Problem is a convex QP. H must be symmetric positive semidefinite.
// Aeq/Beq and Ain/Bin may be nil/empty for unconstrained directions.
type Problem struct {
	H   *mat.Dense
	C   []float64
	Aeq *mat.Dense
	Beq []float64
	Ain *mat.Dense
	Bin []float64
	// Stages, when non-nil, declares receding-horizon stage structure
	// (see StageStructure): Solve then factors the interior-point KKT
	// system with a block-tridiagonal Riccati recursion instead of the
	// dense reference path, after verifying the declared sparsity against
	// the matrix data. A structurally inconsistent declaration (counts
	// not multiplying out to the problem dimensions) is ErrBadProblem;
	// declared but non-conforming matrix data silently uses the dense
	// path. Nil selects the dense reference path.
	Stages *StageStructure
}

// The interior-point iteration limit and the static diagonal
// regularization added to the KKT system. The regularization keeps the
// factorization well-posed when H is only positive semidefinite; both
// KKT backends use it, so the structured path solves the identical
// linear system as the dense reference.
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
	// Structured reports that every KKT factorization of the solve used
	// the stage-structured Riccati backend. It is false when no structure
	// was declared, when the declared structure did not conform to the
	// matrix data, or when a stage factorization lost quasi-definiteness
	// mid-solve and the solver demoted to the dense path for the
	// remaining iterations.
	Structured bool
}

func (p *Problem) validate() (n, meq, min int, err error) {
	if p.H == nil {
		return 0, 0, 0, fmt.Errorf("%w: nil Hessian", ErrBadProblem)
	}
	hr, hc := p.H.Dims()
	if hr != hc {
		return 0, 0, 0, fmt.Errorf("%w: Hessian %d×%d not square", ErrBadProblem, hr, hc)
	}
	n = hr
	if len(p.C) != n {
		return 0, 0, 0, fmt.Errorf("%w: len(C)=%d, want %d", ErrBadProblem, len(p.C), n)
	}
	if p.Aeq != nil {
		r, c := p.Aeq.Dims()
		if c != n || len(p.Beq) != r {
			return 0, 0, 0, fmt.Errorf("%w: equality block %d×%d / %d", ErrBadProblem, r, c, len(p.Beq))
		}
		meq = r
	} else if len(p.Beq) != 0 {
		return 0, 0, 0, fmt.Errorf("%w: Beq without Aeq", ErrBadProblem)
	}
	if p.Ain != nil {
		r, c := p.Ain.Dims()
		if c != n || len(p.Bin) != r {
			return 0, 0, 0, fmt.Errorf("%w: inequality block %d×%d / %d", ErrBadProblem, r, c, len(p.Bin))
		}
		min = r
	} else if len(p.Bin) != 0 {
		return 0, 0, 0, fmt.Errorf("%w: Bin without Ain", ErrBadProblem)
	}
	if !mat.AllFinite(p.C) || !mat.AllFinite(p.Beq) || !mat.AllFinite(p.Bin) {
		return 0, 0, 0, fmt.Errorf("%w: non-finite data", ErrBadProblem)
	}
	// Matrix data must be finite too: a NaN in H or a constraint row
	// poisons the KKT factorization and surfaces as a confusing
	// NumericalFailure deep in the iteration loop.
	if !p.H.AllFinite() {
		return 0, 0, 0, fmt.Errorf("%w: non-finite Hessian", ErrBadProblem)
	}
	if p.Aeq != nil && !p.Aeq.AllFinite() {
		return 0, 0, 0, fmt.Errorf("%w: non-finite equality matrix", ErrBadProblem)
	}
	if p.Ain != nil && !p.Ain.AllFinite() {
		return 0, 0, 0, fmt.Errorf("%w: non-finite inequality matrix", ErrBadProblem)
	}
	if p.Stages != nil {
		if err := p.Stages.Check(n, meq, min); err != nil {
			return 0, 0, 0, err
		}
	}
	return n, meq, min, nil
}

// Objective evaluates ½xᵀHx + cᵀx.
func (p *Problem) objective(x []float64) float64 {
	return 0.5*mat.Dot(x, p.H.MulVec(x)) + mat.Dot(p.C, x)
}

// objectiveInto evaluates ½xᵀHx + cᵀx using hx as the H·x scratch buffer.
func (p *Problem) objectiveInto(x, hx []float64) float64 {
	return 0.5*mat.Dot(x, p.H.MulVecInto(x, hx)) + mat.Dot(p.C, x)
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

	// No inequalities: the problem reduces to a single KKT solve.
	if min == 0 {
		return solveEquality(p, n, meq, ws)
	}

	// Stage-structured backend selection. banded (constant for the whole
	// solve) says the declared structure conforms to the matrix data, so
	// the banded matvecs are valid; stageActive starts equal and is
	// demoted to false — for the remaining iterations — if a stage
	// factorization loses quasi-definiteness.
	var st *stageKKT
	banded := false
	if p.Stages != nil {
		if ws.stage == nil {
			ws.stage = &stageKKT{}
		}
		st = ws.stage
		st.ensure(p.Stages)
		banded = st.conforms(p)
	}
	stageActive := banded

	// Interior-point state.
	x := ws.x
	y := ws.y
	s := ws.s // slacks for Ain·x + s = bin
	z := ws.z // inequality duals
	for i := range x {
		x[i] = 0
	}
	for i := range y {
		y[i] = 0
	}
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

	scale := 1 + mat.NormInf(p.C) + p.H.MaxAbs()
	bScale := 1 + mat.NormInf(p.Beq) + mat.NormInf(p.Bin)

	rd := ws.rd
	rp := ws.rp
	rc := ws.rc
	rsz := ws.rsz

	res := &ws.res
	*res = Result{Status: MaxIterations}
	// hist holds the (dual residual, μ) pairs of recent iterations, newest
	// first; once they show a cycle, commonStep stays set for the solve.
	var hist [2 * cycleMaxPeriod][2]float64
	commonStep := false
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1

		// Residuals (banded matvecs when the structure conforms: the
		// stage windows skip the zero blocks the dense products wade
		// through, which matters once the factorization is cheap).
		var hx []float64
		if banded {
			hx = st.mulH(p.H, x, ws.hx)
		} else {
			hx = p.H.MulVecInto(x, ws.hx)
		}
		for i := 0; i < n; i++ {
			rd[i] = hx[i] + p.C[i]
		}
		if meq > 0 {
			var aty, aeqx []float64
			if banded {
				aty = st.mulAT(p.Aeq, st.ss.NE, y, ws.tmpN)
				aeqx = st.mulA(p.Aeq, st.ss.NE, x, ws.aeqx)
			} else {
				aty = p.Aeq.MulVecTInto(y, ws.tmpN)
				aeqx = p.Aeq.MulVecInto(x, ws.aeqx)
			}
			mat.Axpy(1, aty, rd)
			for i := 0; i < meq; i++ {
				rp[i] = aeqx[i] - p.Beq[i]
			}
		}
		var atz, ainx []float64
		if banded {
			atz = st.mulAT(p.Ain, st.ss.NI, z, ws.tmpN)
			ainx = st.mulA(p.Ain, st.ss.NI, x, ws.ax)
		} else {
			atz = p.Ain.MulVecTInto(z, ws.tmpN)
			ainx = p.Ain.MulVecInto(x, ws.ax)
		}
		mat.Axpy(1, atz, rd)
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

		// The barrier weights d = z/s feed every backend; a nonpositive
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

		// Assemble and factor the reduced KKT matrix
		//   [ H + AinᵀD Ain + regI    Aeqᵀ      ] [dx]   [−r1]
		//   [ Aeq                     −regI     ] [dy] = [−rp]
		// with D = diag(z/s). Structured path first; a stage block that
		// loses quasi-definiteness demotes this and all later iterations
		// of the solve to the dense reference path.
		if stageActive {
			st.assemble(p, z, s)
			if st.factorize() != nil {
				stageActive = false
			}
		}
		useLU := false
		if !stageActive {
			kBlock := ws.kBlock
			kBlock.CopyFrom(p.H)
			for i := 0; i < n; i++ {
				kBlock.Add(i, i, kktReg)
			}
			for k := 0; k < min; k++ {
				d := z[k] / s[k]
				arow := p.Ain.RawRow(k)
				for i, aki := range arow {
					if aki == 0 {
						continue
					}
					krow := kBlock.RawRow(i)
					for j, akj := range arow {
						if akj != 0 {
							krow[j] += d * aki * akj
						}
					}
				}
			}

			// Preferred dense path: structured Cholesky + Schur
			// factorization. Fallback: dense LU of the full saddle-point
			// system when the K-block is not numerically SPD (extreme
			// barrier weights).
			if kerr := ws.kf.factorize(kBlock, p.Aeq, kktReg); kerr != nil {
				useLU = true
				ws.ensureKKT(n + meq)
				kkt := ws.kkt.Zero()
				for i := 0; i < n; i++ {
					copy(kkt.RawRow(i)[:n], kBlock.RawRow(i))
				}
				for i := 0; i < meq; i++ {
					arow := p.Aeq.RawRow(i)
					krow := kkt.RawRow(n + i)
					for j, v := range arow {
						krow[j] = v
						kkt.Set(j, n+i, v)
					}
					krow[n+i] = -kktReg
				}
				if ferr := mat.FactorizeInto(&ws.lu, kkt); ferr != nil {
					res.Status = NumericalFailure
					break
				}
			}
		}

		solveStep := func(rszLocal, dx, dy, ds, dz []float64) {
			// r1 = rd + Ainᵀ S⁻¹ (Z·rc − rsz)
			tmp := ws.tmpMin
			for k := 0; k < min; k++ {
				tmp[k] = (z[k]*rc[k] - rszLocal[k]) / s[k]
			}
			var r1 []float64
			if banded {
				r1 = st.mulAT(p.Ain, st.ss.NI, tmp, ws.r1)
			} else {
				r1 = p.Ain.MulVecTInto(tmp, ws.r1)
			}
			mat.Axpy(1, rd, r1)
			if stageActive {
				rhs1 := mat.ScaleVecInto(ws.rhs1, -1, r1)
				rhs2 := mat.ScaleVecInto(ws.rhs2, -1, rp)
				st.solveInto(rhs1, rhs2, dx, dy)
			} else if !useLU {
				rhs1 := mat.ScaleVecInto(ws.rhs1, -1, r1)
				rhs2 := mat.ScaleVecInto(ws.rhs2, -1, rp)
				ws.kf.solveInto(rhs1, rhs2, dx, dy)
			} else {
				rhs := ws.rhs
				for i := 0; i < n; i++ {
					rhs[i] = -r1[i]
				}
				for i := 0; i < meq; i++ {
					rhs[n+i] = -rp[i]
				}
				ws.lu.SolveInto(rhs, ws.sol)
				copy(dx, ws.sol[:n])
				copy(dy, ws.sol[n:])
			}
			var aindx []float64
			if banded {
				aindx = st.mulA(p.Ain, st.ss.NI, dx, ws.aindx)
			} else {
				aindx = p.Ain.MulVecInto(dx, ws.aindx)
			}
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
	res.Structured = stageActive
	res.Objective = p.objectiveInto(x, ws.hx)
	if res.Status == NumericalFailure {
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
//	[H    Aeqᵀ] [x]   [−c ]
//	[Aeq  0   ] [y] = [beq]
func solveEquality(p *Problem, n, meq int, ws *Workspace) (*Result, error) {
	dim := n + meq
	ws.ensureKKT(dim)
	kkt := ws.kkt.Zero()
	for i := 0; i < n; i++ {
		copy(kkt.RawRow(i)[:n], p.H.RawRow(i))
		kkt.Add(i, i, kktReg)
	}
	for i := 0; i < meq; i++ {
		arow := p.Aeq.RawRow(i)
		krow := kkt.RawRow(n + i)
		for j, v := range arow {
			krow[j] = v
			kkt.Set(j, n+i, v)
		}
		krow[n+i] = -kktReg
	}
	rhs := ws.rhs
	for i := 0; i < n; i++ {
		rhs[i] = -p.C[i]
	}
	for i := 0; i < meq; i++ {
		rhs[n+i] = p.Beq[i]
	}
	res := &ws.res
	if err := mat.FactorizeInto(&ws.lu, kkt); err != nil {
		*res = Result{Status: NumericalFailure}
		return res, fmt.Errorf("qp: singular KKT system: %w", err)
	}
	sol := ws.lu.SolveInto(rhs, ws.sol)
	copy(ws.x, sol[:n])
	copy(ws.y, sol[n:])
	*res = Result{
		X:          ws.x,
		EqDuals:    ws.y,
		InDuals:    nil,
		Iterations: 1,
		Status:     Optimal,
	}
	res.Objective = p.objectiveInto(res.X, ws.hx)
	return res, nil
}
