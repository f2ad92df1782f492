package qp

import (
	"errors"
	"math"

	"evclimate/internal/mat"
)

// stageKKT factors the regularized interior-point Newton system
//
//	[ H + AinᵀD Ain + regI    Aeqᵀ  ] [dx]   [r1]
//	[ Aeq                    −regI  ] [dy] = [r2]
//
// by HPIPM's backward Riccati recursion over the stage state (Frison &
// Diehl, arXiv 2003.02547). Stage k's unknowns are its own nv variables
// v_k and its ne multipliers y_k; through its row windows it also sees
// the nx state variables s_{k−1} that end stage k−1. In window coordinates
// u = (s_{k−1}, v_k), J_k holds the stage's Hessian block, the
// regularization and the barrier terms of its inequality rows, and
// A_k = [A_s A_v] its equality rows.
//
// factor runs backward from the last stage; each J_k already carries the
// cost-to-go P_{k+1} on its trailing state. The stage's own block
//
//	[ J_vv   A_vᵀ  ]
//	[ A_v   −regI  ]
//
// is factored through two Cholesky factorizations, J_vv = L·Lᵀ and the
// ne×ne Schur complement S = A_v J_vv⁻¹ A_vᵀ + regI = L_S·L_Sᵀ, and
// its Schur complement onto s_{k−1} is the next cost-to-go, in
// square-root form
//
//	P_k = J_ss − QᵀQ + RᵀR,   Q = L⁻¹J_vs,   R = L_S⁻¹(A_v J_vv⁻¹ J_vs − A_s),
//
// an nx×nx block added to J_{k−1}. Each stage keeps its Q and R, so
// solveInto reuses the factors the way HPIPM's backward pass does: going
// back, one forward substitution per factor gives a = L⁻¹g̃_v and
// t = L_S⁻¹(A_v J_vv⁻¹ g̃_v − b) at s_{k−1} = 0 and the cost-to-go
// gradient p_k = Rᵀt − Qᵀa; going forward, the previous stage's state s
// moves them to a − Q·s and t − R·s, and one back substitution per factor
// gives y_k = L_S⁻ᵀt and v_k = L⁻ᵀ(a − L⁻¹A_vᵀ·y_k). Stage 0 has no state,
// so a one-stage problem is just the two Cholesky factorizations of its
// own block.
//
// Both factored matrices are positive definite whenever H is positive
// semidefinite — the regularization reaches every own variable and every
// multiplier — so no pivot has a sign to lose. A pivot that cancellation
// under extreme barrier weights drives nonpositive is dropped (see
// cholesky). Two cases end the solve with NumericalFailure: a J_vv pivot
// that only an indefinite H explains (ErrIndefinite), and a stage
// equality row without an own-variable coefficient, which has no pivot.
//
// All storage lives in the struct and is reused across iterations and
// Solve calls — allocation-free once sized.
type stageKKT struct {
	nst, nv, nx, ne int // the layout the buffers are sized for

	st []kktStage

	// factor's work buffers, shared by the stages: an nv- and an
	// ne-vector, the factor M of J_ss − QᵀQ, and a Hessian block.
	a, t, m, h []float64
}

// kktStage is one stage's share of the recursion.
type kktStage struct {
	nxk, nu int // state columns (0 for stage 0) and window width nxk+nv

	j  []float64 // nu×nu stage Hessian J_k, both triangles
	l  []float64 // nv×nv lower Cholesky factor of J_vv
	w  []float64 // ne×nv: row e is L⁻¹·A_v[e]ᵀ
	ls []float64 // ne×ne lower Cholesky factor of S
	qr []float64 // nxk×(nv+ne): column a of Q, then of R, is row a
	p  []float64 // nxk: the cost-to-go gradient p_k handed to stage k−1
}

// errNoPivot and ErrIndefinite are the two ways a stage factorization
// fails: an equality row with no coefficient on its stage's own
// variables, and a stage Hessian block that is not positive
// semidefinite. Solve wraps ErrIndefinite in its error, so a caller can
// tell a Hessian to repair from a problem to relax.
var (
	errNoPivot = errors.New("qp: stage equality row has no own-variable pivot")
	// ErrIndefinite reports a stage Hessian block that is not positive
	// semidefinite.
	ErrIndefinite = errors.New("qp: stage Hessian is not positive definite")
)

// ensure sizes the backend for p's stage layout. It is a no-op when the
// layout is unchanged.
func (f *stageKKT) ensure(p *Problem) {
	nst := len(p.H)
	nv, _ := p.H[0].Dims()
	nx, ne := p.stateCols(), 0
	if p.Aeq != nil {
		ne = p.Aeq.rows
	}
	if f.st != nil && f.nst == nst && f.nv == nv && f.nx == nx && f.ne == ne {
		return
	}
	f.nst, f.nv, f.nx, f.ne = nst, nv, nx, ne
	f.st = make([]kktStage, nst)
	for k := range f.st {
		s := &f.st[k]
		if k > 0 {
			s.nxk = nx
		}
		s.nu = s.nxk + nv
		s.j = make([]float64, s.nu*s.nu)
		s.l = make([]float64, nv*nv)
		s.w = make([]float64, ne*nv)
		s.ls = make([]float64, ne*ne)
		s.qr = make([]float64, s.nxk*(nv+ne))
		s.p = make([]float64, s.nxk)
	}
	f.a = make([]float64, nv)
	f.t = make([]float64, ne)
	f.m = make([]float64, nx*nx)
	f.h = make([]float64, nv*nv)
}

// assemble fills each stage Hessian J_k from its Hessian block, the
// static regularization and the barrier weights d_r = z[r]/s[r] of its
// inequality rows (nil z: no inequalities), walking each row's nonzeros
// only: a single-variable bound row adds one diagonal term.
func (f *stageKKT) assemble(p *Problem, z, s []float64) {
	nv := f.nv
	ni := 0
	if p.Ain != nil {
		ni = p.Ain.rows
	}
	for k := range f.st {
		st := &f.st[k]
		nu, nxk := st.nu, st.nxk
		jk := st.j
		for i := range jk {
			jk[i] = 0
		}
		hk := p.H[k]
		for i := 0; i < nv; i++ {
			row := jk[(nxk+i)*nu+nxk : (nxk+i+1)*nu]
			copy(row, hk.RawRow(i))
			row[i] += kktReg
		}
		for r := k * ni; r < (k+1)*ni; r++ {
			d := z[r] / s[r]
			cols, a := p.Ain.nonzeros(r)
			for _, i := range cols {
				di := d * a[i]
				row := jk[int(i)*nu : (int(i)+1)*nu]
				for _, j := range cols {
					row[j] += di * a[j]
				}
			}
		}
	}
}

// factor factors the Newton matrix for barrier weights z/s (nil: no
// inequalities): it assembles the stage Hessians and runs the backward
// recursion, adding each cost-to-go into the previous stage's J.
func (f *stageKKT) factor(p *Problem, z, s []float64) error {
	f.assemble(p, z, s)
	nv, ne := f.nv, f.ne
	for k := len(f.st) - 1; k >= 0; k-- {
		st := &f.st[k]
		nu, nxk := st.nu, st.nxk
		// J_vv = L·Lᵀ.
		for i := 0; i < nv; i++ {
			copy(st.l[i*nv:i*nv+i+1], st.j[(nxk+i)*nu+nxk:])
		}
		if cholesky(st.l, nv, true) && !f.semidefinite(p.H[k]) {
			return ErrIndefinite
		}
		// W = L⁻¹·A_vᵀ, one equality row at a time, and
		// S = WᵀW + regI = L_S·L_Sᵀ.
		for e := 0; e < ne; e++ {
			_, row := p.Aeq.Row(k*ne + e)
			av := row[nxk:]
			pivot := false
			for _, v := range av {
				if v != 0 {
					pivot = true
					break
				}
			}
			if !pivot {
				return errNoPivot
			}
			lsolve(st.l, av, st.w[e*nv:(e+1)*nv])
		}
		for i := 0; i < ne; i++ {
			wi := st.w[i*nv : (i+1)*nv]
			for j := 0; j <= i; j++ {
				st.ls[i*ne+j] = mat.Dot(wi, st.w[j*nv:(j+1)*nv])
			}
			st.ls[i*ne+i] += kktReg
		}
		cholesky(st.ls, ne, true)
		if nxk == 0 {
			continue
		}
		// Column a of Q = L⁻¹·J_vs and of R = L_S⁻¹·(WᵀQ − A_s), and
		// J_ss − QᵀQ, the Schur complement of J_vv, factored as M·Mᵀ.
		m := nv + ne
		for a := 0; a < nxk; a++ {
			x := f.a
			for i := range x {
				x[i] = st.j[(nxk+i)*nu+a]
			}
			qa, ra := st.qr[a*m:a*m+nv], st.qr[a*m+nv:(a+1)*m]
			lsolve(st.l, x, qa)
			for e := 0; e < ne; e++ {
				_, row := p.Aeq.Row(k*ne + e)
				f.t[e] = mat.Dot(st.w[e*nv:(e+1)*nv], qa) - row[a]
			}
			lsolve(st.ls, f.t, ra)
		}
		mm := f.m
		for a := 0; a < nxk; a++ {
			qa := st.qr[a*m : a*m+nv]
			for b := 0; b <= a; b++ {
				mm[a*nxk+b] = st.j[a*nu+b] - mat.Dot(qa, st.qr[b*m:b*m+nv])
			}
		}
		cholesky(mm, nxk, false)
		// P_k = M·Mᵀ + RᵀR onto the previous stage's trailing state.
		prev := &f.st[k-1]
		pu, off := prev.nu, prev.nu-nxk
		for a := 0; a < nxk; a++ {
			ra := st.qr[a*m+nv : (a+1)*m]
			for b := 0; b <= a; b++ {
				v := mat.Dot(mm[a*nxk:a*nxk+b+1], mm[b*nxk:b*nxk+b+1]) + mat.Dot(ra, st.qr[b*m+nv:(b+1)*m])
				prev.j[(off+a)*pu+off+b] += v
				if b != a {
					prev.j[(off+b)*pu+off+a] += v
				}
			}
		}
	}
	return nil
}

// pivotTol bounds the cancellation cholesky takes for roundoff: a
// pivot no further below zero than pivotTol times its diagonal entry.
const pivotTol = 1e-10

// cholesky overwrites the lower triangle of the m×m matrix l with its
// Cholesky factor. Every nonpositive pivot is dropped, HPIPM's treatment
// of pivots lost to cancellation, as when a saturated barrier weight
// dwarfs the curvature left after elimination: with stiff set its
// diagonal becomes +Inf, so the triangular solves give that direction no
// step; without, its column becomes zero, the nearest positive
// semidefinite factor of a Schur complement that is semidefinite in
// exact arithmetic. It reports whether a dropped pivot lay further below
// zero than roundoff explains.
func cholesky(l []float64, m int, stiff bool) (lost bool) {
	for j := 0; j < m; j++ {
		lj := l[j*m : j*m+j]
		a := l[j*m+j]
		d := a - mat.Dot(lj, lj)
		if !(d > 0) {
			lost = lost || d < -pivotTol*a || a < 0
			l[j*m+j] = 0
			if stiff {
				l[j*m+j] = math.Inf(1)
			}
			for i := j + 1; i < m; i++ {
				l[i*m+j] = 0
			}
			continue
		}
		ljj := math.Sqrt(d)
		l[j*m+j] = ljj
		for i := j + 1; i < m; i++ {
			l[i*m+j] = (l[i*m+j] - mat.Dot(l[i*m:i*m+j], lj)) / ljj
		}
	}
	return lost
}

// semidefinite reports whether the Hessian block h, regularized, factors
// without a pivot that roundoff cannot explain: the test that tells an
// indefinite H from a stage block whose pivots the barrier weights
// cancelled away.
func (f *stageKKT) semidefinite(h *mat.Dense) bool {
	nv := f.nv
	for i := 0; i < nv; i++ {
		copy(f.h[i*nv:i*nv+i+1], h.RawRow(i))
		f.h[i*nv+i] += kktReg
	}
	return !cholesky(f.h, nv, true)
}

// solveInto solves the factored system for r1, r2 into dx, dy.
func (f *stageKKT) solveInto(r1, r2, dx, dy []float64) {
	nv, ne, m := f.nv, f.ne, f.nv+f.ne
	// Backward sweep: a = L⁻¹g̃_v, g̃_v being r1_k with p_{k+1} added on
	// the trailing state, and t = L_S⁻¹(Wᵀa − b), parked in dx, dy.
	for k := len(f.st) - 1; k >= 0; k-- {
		st := &f.st[k]
		a, t := dx[k*nv:(k+1)*nv], dy[k*ne:(k+1)*ne]
		copy(a, r1[k*nv:(k+1)*nv])
		if k+1 < len(f.st) {
			next := f.st[k+1].p
			off := nv - len(next)
			for i, v := range next {
				a[off+i] += v
			}
		}
		lsolve(st.l, a, a)
		for e := range t {
			t[e] = mat.Dot(st.w[e*nv:(e+1)*nv], a) - r2[k*ne+e]
		}
		lsolve(st.ls, t, t)
		for c := range st.p {
			col := st.qr[c*m : (c+1)*m]
			st.p[c] = mat.Dot(col[nv:], t) - mat.Dot(col[:nv], a)
		}
	}
	// Forward sweep: a − Q·s and t − R·s for the previous stage's state s,
	// then y = L_S⁻ᵀt and v = L⁻ᵀ(a − W·y).
	for k := range f.st {
		st := &f.st[k]
		v, y := dx[k*nv:(k+1)*nv], dy[k*ne:(k+1)*ne]
		for c, sc := range dx[k*nv-st.nxk : k*nv] {
			col := st.qr[c*m : (c+1)*m]
			for i := range v {
				v[i] -= col[i] * sc
			}
			for e := range y {
				y[e] -= col[nv+e] * sc
			}
		}
		ltsolve(st.ls, y, y)
		for e, ye := range y {
			if ye != 0 {
				for i, wv := range st.w[e*nv : (e+1)*nv] {
					v[i] -= wv * ye
				}
			}
		}
		ltsolve(st.l, v, v)
	}
}

// lsolve solves L·x = b by forward substitution for the m×m lower
// factor l, m = len(b); x may alias b.
func lsolve(l, b, x []float64) {
	m := len(b)
	for i := 0; i < m; i++ {
		x[i] = (b[i] - mat.Dot(l[i*m:i*m+i], x[:i])) / l[i*m+i]
	}
}

// ltsolve solves Lᵀ·x = b by backward substitution; x may alias b.
func ltsolve(l, b, x []float64) {
	m := len(b)
	for i := m - 1; i >= 0; i-- {
		v := b[i]
		for c := i + 1; c < m; c++ {
			v -= l[c*m+i] * x[c]
		}
		x[i] = v / l[i*m+i]
	}
}
