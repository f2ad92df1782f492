package qp

import "fmt"

// StageMatrix is a constraint Jacobian in receding-horizon stage layout
// (the OCP-QP layout of HPIPM, Frison & Diehl, arXiv 2003.02547). The
// columns are N stages of nv variables each, and the rows are N stages
// of the same number of rows each. The last nx variables of each stage
// are its state: a stage-k row couples the variables of stage k with the
// state of stage k−1 (stage 0: its own variables only), which is how a
// multiple-shooting transcription writes its dynamics and path
// constraints. Each row stores just that support window of nx+nv
// columns, contiguously, so storage grows as N rather than N². A problem
// whose rows couple whole stages declares nx = nv.
//
// A one-stage matrix is an ordinary dense row-major matrix: every row's
// window is the full width.
//
// Indices are global. Set and At panic outside a row's window, so the
// backward-support contract the stage KKT backend relies on is enforced
// when the data is written.
//
// Beside the windows the matrix keeps each row's nonzero columns packed
// in ascending order, rebuilt on the first product after a write, so a
// single-variable bound row costs one term in every product and in the
// KKT assembly. The products therefore write to the matrix, and a matrix
// that was written since its last product is not safe for concurrent
// use.
type StageMatrix struct {
	n, nv, nx, rows int // stages, variables and state variables per stage, rows per stage
	data            []float64

	// Row i's nonzeros sit at the window-relative columns
	// nzCol[nzOff[i]:nzOff[i+1]]; stale marks the lists out of date.
	// nzCol grows to the largest nonzero count packed so far.
	nzOff []int32
	nzCol []int32
	stale bool
}

// NewStageMatrix returns a zeroed matrix of stages·rows rows and
// stages·nv columns whose rows reach back to the last nx variables of
// the previous stage. It panics unless stages ≥ 1, nv ≥ 1, 0 ≤ nx ≤ nv
// and rows ≥ 0.
func NewStageMatrix(stages, nv, nx, rows int) *StageMatrix {
	if stages < 1 || nv < 1 || nx < 0 || nx > nv || rows < 0 {
		panic(fmt.Sprintf("qp: NewStageMatrix(%d, %d, %d, %d): need stages ≥ 1, nv ≥ 1, 0 ≤ nx ≤ nv, rows ≥ 0", stages, nv, nx, rows))
	}
	return &StageMatrix{
		n: stages, nv: nv, nx: nx, rows: rows,
		data:  make([]float64, rows*(nv+(stages-1)*(nx+nv))),
		nzOff: make([]int32, stages*rows+1),
	}
}

// Dims returns the global row and column counts.
func (a *StageMatrix) Dims() (rows, cols int) { return a.n * a.rows, a.n * a.nv }

// Row returns row i's support window: the global column of its first
// entry and the stored entries, aliasing the matrix storage. The entries
// are read-only; write through Set.
func (a *StageMatrix) Row(i int) (lo int, v []float64) {
	lo, off, w := a.locate(i)
	return lo, a.data[off : off+w]
}

// locate returns row i's first global column, storage offset and width.
func (a *StageMatrix) locate(i int) (lo, off, width int) {
	if i < 0 || i >= a.n*a.rows {
		panic(fmt.Sprintf("qp: StageMatrix row %d out of range [0, %d)", i, a.n*a.rows))
	}
	if i < a.rows {
		return 0, i * a.nv, a.nv
	}
	return (i/a.rows)*a.nv - a.nx, a.rows*a.nv + (i-a.rows)*(a.nx+a.nv), a.nx + a.nv
}

// at returns the storage index of (i, j), panicking outside row i's
// window.
func (a *StageMatrix) at(i, j int) int {
	lo, off, w := a.locate(i)
	if j < lo || j >= lo+w {
		panic(fmt.Sprintf("qp: StageMatrix entry (%d, %d) outside the row's stage window [%d, %d)", i, j, lo, lo+w))
	}
	return off + j - lo
}

// Set writes entry (i, j).
func (a *StageMatrix) Set(i, j int, v float64) {
	a.data[a.at(i, j)] = v
	a.stale = true
}

// Zero clears every entry.
func (a *StageMatrix) Zero() {
	for i := range a.data {
		a.data[i] = 0
	}
	a.stale = true
}

// nonzeros returns row i's nonzero columns, window-relative and
// ascending, and its window, which holds their values.
func (a *StageMatrix) nonzeros(i int) (cols []int32, row []float64) {
	a.fresh()
	_, row = a.Row(i)
	return a.nzCol[a.nzOff[i]:a.nzOff[i+1]], row
}

// fresh brings the nonzero lists up to date.
func (a *StageMatrix) fresh() {
	if a.stale {
		a.pack()
	}
}

// pack rebuilds the nonzero lists from the windows, reallocating them
// only when the nonzero count outgrows them.
func (a *StageMatrix) pack() {
	nnz := 0
	for _, v := range a.data {
		if v != 0 {
			nnz++
		}
	}
	if nnz > cap(a.nzCol) {
		a.nzCol = make([]int32, nnz)
	}
	off, p := 0, 0
	for k := 0; k < a.n; k++ {
		_, w := a.window(k)
		for r := k * a.rows; r < (k+1)*a.rows; r++ {
			a.nzOff[r] = int32(p)
			for j, v := range a.data[off : off+w] {
				if v != 0 {
					a.nzCol[p] = int32(j)
					p++
				}
			}
			off += w
		}
	}
	a.nzOff[a.n*a.rows] = int32(p)
	a.stale = false
}

// MulVecInto computes dst = A·x row by row over each row's nonzeros and
// returns dst. For finite x it is bit-identical to the sum over the
// whole window: the skipped terms are zeros added to a sum that starts
// at +0.
func (a *StageMatrix) MulVecInto(x, dst []float64) []float64 {
	a.fresh()
	off := 0
	for k := 0; k < a.n; k++ {
		lo, w := a.window(k)
		xw := x[lo : lo+w]
		for r := k * a.rows; r < (k+1)*a.rows; r++ {
			row := a.data[off : off+w]
			var acc float64
			for _, j := range a.nzCol[a.nzOff[r]:a.nzOff[r+1]] {
				acc += row[j] * xw[j]
			}
			dst[r] = acc
			off += w
		}
	}
	return dst
}

// MulVecTInto computes dst = Aᵀ·y, accumulating row by row over each
// row's nonzeros and skipping rows whose multiplier is zero, and returns
// dst.
func (a *StageMatrix) MulVecTInto(y, dst []float64) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	a.fresh()
	off := 0
	for k := 0; k < a.n; k++ {
		lo, w := a.window(k)
		dw := dst[lo : lo+w]
		for r := k * a.rows; r < (k+1)*a.rows; r++ {
			if yr := y[r]; yr != 0 {
				row := a.data[off : off+w]
				for _, j := range a.nzCol[a.nzOff[r]:a.nzOff[r+1]] {
					dw[j] += row[j] * yr
				}
			}
			off += w
		}
	}
	return dst
}

// window returns the first global column and the width of stage k's
// row windows.
func (a *StageMatrix) window(k int) (lo, width int) {
	if k == 0 {
		return 0, a.nv
	}
	return k*a.nv - a.nx, a.nx + a.nv
}

// oneStage returns a one-stage copy of the matrix (nil for nil).
func (a *StageMatrix) oneStage() *StageMatrix {
	if a == nil {
		return nil
	}
	rows, cols := a.Dims()
	d := NewStageMatrix(1, cols, 0, rows)
	for i := 0; i < rows; i++ {
		lo, v := a.Row(i)
		copy(d.data[i*cols+lo:], v)
	}
	d.stale = true
	return d
}
