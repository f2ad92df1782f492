// Package mat implements the small dense linear-algebra kernel used by the
// QP and SQP solvers: a row-major dense matrix type and vector helpers.
//
// The package is deliberately scoped to the needs of the model-predictive
// controller: problems have at most a few hundred variables, so simple
// O(n³) dense algorithms with partial pivoting are both fast enough and
// easy to audit. All storage is float64.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// Dense is a dense, row-major matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewDense returns a zeroed rows×cols matrix. It panics if either
// dimension is not positive.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: NewDense(%d, %d): dimensions must be positive", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData returns a rows×cols matrix backed by data (not copied).
// It panics if len(data) != rows*cols.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: NewDenseData(%d, %d): dimensions must be positive", rows, cols))
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: NewDenseData(%d, %d): data length %d != %d", rows, cols, len(data), rows*cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// FromRows builds a matrix from a slice of equal-length rows (copied).
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: FromRows: empty input")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("mat: FromRows: row %d has length %d, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d, %d) out of range for %d×%d matrix", i, j, m.rows, m.cols))
	}
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product m·b as a new matrix.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(ErrShape)
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		orow := out.data[i*b.cols : (i+1)*b.cols]
		for k, mv := range m.data[i*m.cols : (i+1)*m.cols] {
			if mv == 0 {
				continue
			}
			for j, bv := range b.data[k*b.cols : (k+1)*b.cols] {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·x as a new vector.
func (m *Dense) MulVec(x []float64) []float64 {
	return m.MulVecInto(x, make([]float64, m.rows))
}

// AllFinite reports whether every element is finite (no NaN or ±Inf).
func (m *Dense) AllFinite() bool {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value (the max norm).
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%10.4g", m.data[i*m.cols+j])
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}
