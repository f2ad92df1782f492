package mat

// In-place / "into" kernels for the solver hot path: the MPC re-solves
// an SQP problem every control step, and allocating results would churn
// the garbage collector with short-lived buffers of identical size on
// every iteration. Each -Into kernel writes its result into a
// caller-provided buffer; MulVec is a thin allocating wrapper over
// MulVecInto with the same bits.
//
// Unless noted otherwise, destination buffers must not alias the inputs.

// Zero sets every element of m to zero in place and returns m.
func (m *Dense) Zero() *Dense {
	for i := range m.data {
		m.data[i] = 0
	}
	return m
}

// RawRow returns row i of m as a slice aliasing the matrix storage (no
// copy). Mutating the slice mutates the matrix. This is the escape hatch
// the solvers use to run row-sliced inner loops without per-element At/Set
// bounds checks.
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(ErrShape)
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// MulVecInto computes m·x into dst (length m.rows) and returns dst.
// dst must not alias x.
func (m *Dense) MulVecInto(x, dst []float64) []float64 {
	if m.cols != len(x) {
		panic(ErrShape)
	}
	if len(dst) != m.rows {
		panic(ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// SubVecInto computes x − y into dst and returns dst.
func SubVecInto(dst, x, y []float64) []float64 {
	if len(x) != len(y) || len(dst) != len(x) {
		panic(ErrShape)
	}
	for i := range x {
		dst[i] = x[i] - y[i]
	}
	return dst
}

// ScaleVecInto computes s·x into dst and returns dst.
func ScaleVecInto(dst []float64, s float64, x []float64) []float64 {
	if len(dst) != len(x) {
		panic(ErrShape)
	}
	for i, v := range x {
		dst[i] = s * v
	}
	return dst
}
