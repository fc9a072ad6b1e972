package quality

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// ProcrustesDistance computes the normalized orthogonal Procrustes
// distance between two 2-D layouts of the same vertex set: both are
// centered and scaled to unit Frobenius norm, b is optimally rotated (and,
// if allowReflection, reflected) onto a, and the residual
// ‖A − B·R‖_F² ∈ [0, 2] is returned. Zero means the drawings are
// identical up to translation, rotation, reflection, and scale — exactly
// the invariances of spectral layouts, whose axes are defined only up to
// sign and rotation within eigenspaces. This makes "ParHDE captures the
// same structure as the spectral drawing" (Figure 1) a measurable claim.
// A non-finite coordinate in either layout is an error.
func ProcrustesDistance(a, b *core.Layout, allowReflection bool) (float64, error) {
	if a.NumVertices() != b.NumVertices() {
		return 0, fmt.Errorf("quality: layouts have %d and %d vertices", a.NumVertices(), b.NumVertices())
	}
	if a.Dims() != 2 || b.Dims() != 2 {
		return 0, fmt.Errorf("quality: Procrustes alignment implemented for 2-D layouts")
	}
	n := a.NumVertices()
	for _, l := range []*core.Layout{a, b} {
		for i, x := range l.X() {
			if !finite(x, l.Y()[i]) {
				return 0, fmt.Errorf("quality: vertex %d has non-finite coordinates (%g, %g)", i, x, l.Y()[i])
			}
		}
	}
	ax, ay := normalize2D(a)
	bx, by := normalize2D(b)

	// Cross-covariance M = AᵀB (2×2).
	var m00, m01, m10, m11 float64
	for i := 0; i < n; i++ {
		m00 += ax[i] * bx[i]
		m01 += ax[i] * by[i]
		m10 += ay[i] * bx[i]
		m11 += ay[i] * by[i]
	}
	// Optimal rotation maximizes tr(MR). For 2×2, the best proper rotation
	// has tr = sqrt((m00+m11)² + (m01−m10)²); the best improper
	// (reflection) has tr = sqrt((m00−m11)² + (m01+m10)²).
	properTr := math.Hypot(m00+m11, m01-m10)
	improperTr := math.Hypot(m00-m11, m01+m10)
	best := properTr
	if allowReflection && improperTr > best {
		best = improperTr
	}
	// Residual with unit-norm inputs: ‖A − BR‖² = 2 − 2·tr(MR).
	d := 2 - 2*best
	if d < 0 {
		d = 0
	}
	return d, nil
}

// normalize2D returns centered, unit-Frobenius-norm copies of the two
// coordinate columns.
func normalize2D(l *core.Layout) (x, y []float64) {
	n := l.NumVertices()
	x = append([]float64(nil), l.X()...)
	y = append([]float64(nil), l.Y()...)
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var norm float64
	for i := 0; i < n; i++ {
		x[i] -= mx
		y[i] -= my
		norm += x[i]*x[i] + y[i]*y[i]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return x, y
	}
	for i := 0; i < n; i++ {
		x[i] /= norm
		y[i] /= norm
	}
	return x, y
}
