package linalg

import "fmt"

// Dense is a column-major dense matrix. ParHDE stores the distance matrix
// B and the subspace matrix S column-major (Algorithm 3, line 2) because
// every kernel — orthogonalization, SpMM, projection — works a column at a
// time over length-n vectors.
type Dense struct {
	Rows, Cols int
	Data       []float64 // column j is Data[j*Rows : (j+1)*Rows]
}

// NewDense allocates a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// ViewDense wraps buf as a rows×cols column-major matrix without copying
// (cap(buf) must be ≥ rows·cols). Workspace-backed kernels use it to give
// pooled flat buffers a Dense shape; the contents are reused verbatim, so
// callers that need zeroed storage must clear it themselves.
func ViewDense(buf []float64, rows, cols int) *Dense {
	if cap(buf) < rows*cols {
		panic(fmt.Sprintf("linalg: viewing %d×%d over cap %d", rows, cols, cap(buf)))
	}
	return &Dense{Rows: rows, Cols: cols, Data: buf[:rows*cols]}
}

// Col returns column j as a slice sharing the matrix storage.
func (m *Dense) Col(j int) []float64 {
	return m.Data[j*m.Rows : (j+1)*m.Rows]
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[j*m.Rows+i] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[j*m.Rows+i] = v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// DropColumns returns a matrix keeping only the listed columns, in order.
// Orthogonalization uses it to discard near-linearly-dependent distance
// vectors (Algorithm 3, lines 12-13).
func (m *Dense) DropColumns(keep []int) *Dense {
	out := NewDense(m.Rows, len(keep))
	for j, k := range keep {
		copy(out.Col(j), m.Col(k))
	}
	return out
}
