package mat

// In-place / "into" variants of the allocating kernels. These exist for
// the solver hot path: the MPC re-solves an SQP problem every control
// step, and the allocating APIs (Mul, MulVec, LU.Solve, ...) would churn
// the garbage collector with short-lived buffers of identical size on
// every iteration. Each -Into variant writes its result into a
// caller-provided buffer and performs the exact same floating-point
// operations in the exact same order as its allocating counterpart, so
// results are bit-for-bit identical — the allocating APIs are now thin
// wrappers over these.
//
// Unless noted otherwise, destination buffers must not alias the inputs.

// Zero sets every element of m to zero in place and returns m.
func (m *Dense) Zero() *Dense {
	for i := range m.data {
		m.data[i] = 0
	}
	return m
}

// CopyFrom copies b into m. The shapes must match.
func (m *Dense) CopyFrom(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(ErrShape)
	}
	copy(m.data, b.data)
}

// RawRow returns row i of m as a slice aliasing the matrix storage (no
// copy). Mutating the slice mutates the matrix. This is the escape hatch
// the solvers use to run row-sliced inner loops without per-element At/Set
// bounds checks; use Row for a safe copy.
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(ErrShape)
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// MulInto computes the matrix product m·b into dst and returns dst.
// dst must be m.rows×b.cols and must not alias m or b.
func (m *Dense) MulInto(b, dst *Dense) *Dense {
	if m.cols != b.rows {
		panic(ErrShape)
	}
	if dst.rows != m.rows || dst.cols != b.cols {
		panic(ErrShape)
	}
	for i := range dst.data {
		dst.data[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := dst.data[i*b.cols : (i+1)*b.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return dst
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

// MulVecTInto computes mᵀ·x into dst (length m.cols) without forming the
// transpose, and returns dst. dst must not alias x.
func (m *Dense) MulVecTInto(x, dst []float64) []float64 {
	if m.rows != len(x) {
		panic(ErrShape)
	}
	if len(dst) != m.cols {
		panic(ErrShape)
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			dst[j] += xi * v
		}
	}
	return dst
}

// TInto writes the transpose of m into dst (m.cols×m.rows) and returns
// dst. dst must not alias m.
func (m *Dense) TInto(dst *Dense) *Dense {
	if dst.rows != m.cols || dst.cols != m.rows {
		panic(ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			dst.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return dst
}

// AddVecInto computes x + y into dst and returns dst.
func AddVecInto(dst, x, y []float64) []float64 {
	if len(x) != len(y) || len(dst) != len(x) {
		panic(ErrShape)
	}
	for i := range x {
		dst[i] = x[i] + y[i]
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

// growInts returns v resized to length n, reusing its backing array when
// the capacity allows. Contents are unspecified.
func growInts(v []int, n int) []int {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]int, n)
}
