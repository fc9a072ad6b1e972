package core

import (
	"math"

	"repro/internal/linalg"
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

// FiniteBounds returns the least and the greatest finite value of col
// (+Inf and −Inf when it holds none). NaN and ±Inf are left out, so one
// non-finite coordinate moves no other vertex of a drawing: it is the
// bounding box every drawing and ordering of a layout normalizes by.
func FiniteBounds(col []float64) (mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	for _, v := range col {
		if math.IsInf(v, 0) {
			continue
		}
		if v < mn { // false for NaN
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// Clone deep-copies the layout.
func (l *Layout) Clone() *Layout {
	return &Layout{Coords: l.Coords.Clone()}
}
