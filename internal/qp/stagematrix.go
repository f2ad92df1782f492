package qp

import (
	"fmt"

	"evclimate/internal/mat"
)

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
type StageMatrix struct {
	n, nv, nx, rows int // stages, variables and state variables per stage, rows per stage
	data            []float64
}

// NewStageMatrix returns a zeroed matrix of stages·rows rows and
// stages·nv columns whose rows reach back to the last nx variables of
// the previous stage. It panics unless stages ≥ 1, nv ≥ 1, 0 ≤ nx ≤ nv
// and rows ≥ 0.
func NewStageMatrix(stages, nv, nx, rows int) *StageMatrix {
	if stages < 1 || nv < 1 || nx < 0 || nx > nv || rows < 0 {
		panic(fmt.Sprintf("qp: NewStageMatrix(%d, %d, %d, %d): need stages ≥ 1, nv ≥ 1, 0 ≤ nx ≤ nv, rows ≥ 0", stages, nv, nx, rows))
	}
	return &StageMatrix{n: stages, nv: nv, nx: nx, rows: rows, data: make([]float64, rows*(nv+(stages-1)*(nx+nv)))}
}

// Dims returns the global row and column counts.
func (a *StageMatrix) Dims() (rows, cols int) { return a.n * a.rows, a.n * a.nv }

// Row returns row i's support window: the global column of its first
// entry and the stored entries, aliasing the matrix storage.
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

// At returns entry (i, j).
func (a *StageMatrix) At(i, j int) float64 { return a.data[a.at(i, j)] }

// Set writes entry (i, j).
func (a *StageMatrix) Set(i, j int, v float64) { a.data[a.at(i, j)] = v }

// Zero clears every entry.
func (a *StageMatrix) Zero() {
	for i := range a.data {
		a.data[i] = 0
	}
}

// MulVecInto computes dst = A·x row by row over each window and returns
// dst.
func (a *StageMatrix) MulVecInto(x, dst []float64) []float64 {
	off := 0
	for k := 0; k < a.n; k++ {
		lo, w := a.window(k)
		xw := x[lo : lo+w]
		for r := k * a.rows; r < (k+1)*a.rows; r++ {
			row := a.data[off : off+w]
			var acc float64
			for j, v := range row {
				acc += v * xw[j]
			}
			dst[r] = acc
			off += w
		}
	}
	return dst
}

// MulVecTInto computes dst = Aᵀ·y, accumulating row by row and skipping
// rows whose multiplier is zero, and returns dst.
func (a *StageMatrix) MulVecTInto(y, dst []float64) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	off := 0
	for k := 0; k < a.n; k++ {
		lo, w := a.window(k)
		dw := dst[lo : lo+w]
		for r := k * a.rows; r < (k+1)*a.rows; r++ {
			yr := y[r]
			if yr != 0 {
				for j, v := range a.data[off : off+w] {
					dw[j] += v * yr
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

// denseInto writes the matrix into the full-width dense dst.
func (a *StageMatrix) denseInto(dst *mat.Dense) {
	dst.Zero()
	rows, _ := a.Dims()
	for i := 0; i < rows; i++ {
		lo, v := a.Row(i)
		copy(dst.RawRow(i)[lo:], v)
	}
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
	return d
}
