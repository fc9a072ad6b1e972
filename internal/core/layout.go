package core

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// Layout holds p-dimensional vertex coordinates produced by a drawing
// algorithm: column k of Coords is the coordinate vector x_k ∈ Rⁿ.
type Layout struct {
	Coords *linalg.Dense // n×p
}

// NumVertices returns n.
func (l *Layout) NumVertices() int { return l.Coords.Rows }

// Dims returns p.
func (l *Layout) Dims() int { return l.Coords.Cols }

// X returns the first coordinate vector.
func (l *Layout) X() []float64 { return l.Coords.Col(0) }

// Y returns the second coordinate vector (panics if p < 2).
func (l *Layout) Y() []float64 { return l.Coords.Col(1) }

// Bounds returns the per-dimension min and max coordinates.
func (l *Layout) Bounds() (min, max []float64) {
	p := l.Dims()
	min = make([]float64, p)
	max = make([]float64, p)
	for k := 0; k < p; k++ {
		col := l.Coords.Col(k)
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, v := range col {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		min[k], max[k] = mn, mx
	}
	return min, max
}

// NormalizeUnit rescales coordinates in place into [0, 1]^p, preserving
// aspect ratio across dimensions (a drawing convenience; algorithms'
// native scales are arbitrary).
func (l *Layout) NormalizeUnit() {
	min, max := l.Bounds()
	span := 0.0
	for k := range min {
		if s := max[k] - min[k]; s > span {
			span = s
		}
	}
	if span == 0 {
		span = 1
	}
	for k := 0; k < l.Dims(); k++ {
		col := l.Coords.Col(k)
		mn := min[k]
		parallel.Live().ForBlock(len(col), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				col[i] = (col[i] - mn) / span
			}
		})
	}
}

// Clone deep-copies the layout.
func (l *Layout) Clone() *Layout {
	return &Layout{Coords: l.Coords.Clone()}
}
