package quality

import (
	"fmt"
	"math"

	"repro/internal/eigen"
	"repro/internal/linalg"
	"repro/internal/parallel"
)

// PrincipalAngles returns the principal angles, ascending, between the
// column spans of the n×p matrices x and y under the inner product
// ⟨a, b⟩ = aᵀ·diag(d)·b (d nil means the plain one): all zero for equal
// spans, π/2 for orthogonal ones. It is a distance between subspaces, so
// it ignores the sign, rotation and scale of a drawing's axes. Each span
// is whitened with eigen.SymEig of its p×p Gram matrix; the cosines are
// the singular values of the p×p cross-Gram of the whitened spans, read
// from SymEig of its normal matrix. Both inputs need full column rank.
func PrincipalAngles(x, y *linalg.Dense, d []float64) ([]float64, error) {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return nil, fmt.Errorf("quality: spans of %d×%d and %d×%d", x.Rows, x.Cols, y.Rows, y.Cols)
	}
	qx, err := whiten(x, d)
	if err != nil {
		return nil, err
	}
	qy, err := whiten(y, d)
	if err != nil {
		return nil, err
	}
	c := gram(qx, qy, d)
	cos2, _, err := eigen.SymEig(gram(c, c, nil))
	if err != nil {
		return nil, err
	}
	angles := make([]float64, len(cos2))
	for i, v := range cos2 {
		// Ascending cos² is descending angle: fill from the back.
		angles[len(angles)-1-i] = math.Acos(math.Sqrt(min(max(v, 0), 1)))
	}
	return angles, nil
}

// whiten returns X·V·Λ^{-1/2} for the Gram matrix XᵀDX = V·Λ·Vᵀ: a basis
// of X's span with D-orthonormal columns.
func whiten(x *linalg.Dense, d []float64) (*linalg.Dense, error) {
	vals, vecs, err := eigen.SymEig(gram(x, x, d))
	if err != nil {
		return nil, err
	}
	if !(vals[0] > 1e-14*vals[len(vals)-1]) {
		return nil, fmt.Errorf("quality: a span of rank below %d", x.Cols)
	}
	for j, v := range vals {
		linalg.Scale(1/math.Sqrt(v), vecs.Col(j))
	}
	return linalg.MulSmallBudget(parallel.FixedBudget(1), x, vecs, nil), nil
}

// gram returns XᵀDY (d nil: XᵀY).
func gram(x, y *linalg.Dense, d []float64) *linalg.Dense {
	g := linalg.NewDense(x.Cols, y.Cols)
	for i := 0; i < x.Cols; i++ {
		for j := 0; j < y.Cols; j++ {
			if d == nil {
				g.Set(i, j, linalg.Dot(x.Col(i), y.Col(j)))
			} else {
				g.Set(i, j, linalg.DDot(x.Col(i), d, y.Col(j)))
			}
		}
	}
	return g
}
