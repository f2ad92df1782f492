// Package mat implements the small dense linear-algebra kernel used by the
// QP and SQP solvers: a row-major dense matrix type, vector helpers and an
// LU factorization with partial pivoting.
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

// ErrSingular is returned by factorizations and solvers when the matrix is
// singular (or numerically singular) to working precision.
var ErrSingular = errors.New("mat: matrix is singular")

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

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Dense {
	m := NewDense(len(d), len(d))
	for i, v := range d {
		m.data[i*len(d)+i] = v
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

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range", i))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// SetRow copies r into row i.
func (m *Dense) SetRow(i int, r []float64) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range", i))
	}
	if len(r) != m.cols {
		panic(ErrShape)
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], r)
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range", j))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	return m.TInto(NewDense(m.cols, m.rows))
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddMat returns m + b as a new matrix.
func (m *Dense) AddMat(b *Dense) *Dense {
	if m.rows != b.rows || m.cols != b.cols {
		panic(ErrShape)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out
}

// SubMat returns m − b as a new matrix.
func (m *Dense) SubMat(b *Dense) *Dense {
	if m.rows != b.rows || m.cols != b.cols {
		panic(ErrShape)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out
}

// Mul returns the matrix product m·b as a new matrix.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(ErrShape)
	}
	return m.MulInto(b, NewDense(m.rows, b.cols))
}

// MulVec returns the matrix-vector product m·x as a new vector.
func (m *Dense) MulVec(x []float64) []float64 {
	return m.MulVecInto(x, make([]float64, m.rows))
}

// MulVecT returns mᵀ·x (x has length rows) without forming the transpose.
func (m *Dense) MulVecT(x []float64) []float64 {
	return m.MulVecTInto(x, make([]float64, m.cols))
}

// IsSymmetric reports whether m is square and symmetric to within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.data[i*m.cols+j]-m.data[j*m.cols+i]) > tol {
				return false
			}
		}
	}
	return true
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

// EqualApprox reports whether m and b have the same shape and agree
// elementwise to within tol.
func (m *Dense) EqualApprox(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
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
