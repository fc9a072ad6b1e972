package core

import (
	"math"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/parallel"
)

// Quality summarizes a layout against the paper's Equation 1 aesthetics:
// the Hall/Koren energy ratio (lower = similar vertices drawn closer,
// relative to overall scatter) plus simple edge-length statistics.
type Quality struct {
	// HallRatio is Σ_k xₖᵀLxₖ / Σ_k xₖᵀDxₖ, computed on centered axes —
	// the objective of Equation 1 (without the orthogonality constraints).
	HallRatio float64
	// MeanEdgeLength is the mean drawn edge length after unit
	// normalization.
	MeanEdgeLength float64
	// EdgeLengthCV is the coefficient of variation of the drawn edge
	// lengths — lower is more uniform.
	EdgeLengthCV float64
}

// Evaluate computes layout-quality metrics for l on g.
func Evaluate(g *graph.CSR, l *Layout) Quality {
	n := g.NumV
	deg := g.WeightedDegrees()
	var num, den float64
	tmp := make([]float64, n)
	for k := 0; k < l.Dims(); k++ {
		x := centered(g, l.Coords.Col(k), deg)
		linalg.LapMulVec(g, deg, x, tmp)
		num += linalg.Dot(x, tmp)
		den += linalg.DDot(x, deg, x)
	}
	q := Quality{}
	if den > 0 {
		q.HallRatio = num / den
	}

	// Edge-length statistics on a unit-normalized copy.
	copyL := l.Clone()
	copyL.NormalizeUnit()
	var sum, sumSq float64
	var count int64
	sum = parallel.SumFloat64(n, func(v int) float64 {
		var s float64
		for _, u := range g.Neighbors(int32(v)) {
			if u <= int32(v) {
				continue
			}
			s += edgeLen(copyL, int32(v), u)
		}
		return s
	})
	sumSq = parallel.SumFloat64(n, func(v int) float64 {
		var s float64
		for _, u := range g.Neighbors(int32(v)) {
			if u <= int32(v) {
				continue
			}
			d := edgeLen(copyL, int32(v), u)
			s += d * d
		}
		return s
	})
	count = g.NumEdges()
	if count > 0 {
		mean := sum / float64(count)
		q.MeanEdgeLength = mean
		variance := sumSq/float64(count) - mean*mean
		if variance < 0 {
			variance = 0
		}
		if mean > 0 {
			q.EdgeLengthCV = math.Sqrt(variance) / mean
		}
	}
	return q
}

// centered returns x minus its D-weighted mean — Equation 1's constraint
// xᵀD1 = 0 imposed before measuring energy.
func centered(g *graph.CSR, x, deg []float64) []float64 {
	n := len(x)
	var wsum, dsum float64
	wsum = parallel.SumFloat64(n, func(i int) float64 { return deg[i] * x[i] })
	dsum = parallel.SumFloat64(n, func(i int) float64 { return deg[i] })
	mean := 0.0
	if dsum > 0 {
		mean = wsum / dsum
	}
	out := make([]float64, n)
	parallel.ForBlock(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = x[i] - mean
		}
	})
	return out
}

func edgeLen(l *Layout, v, u int32) float64 {
	var s float64
	for k := 0; k < l.Dims(); k++ {
		col := l.Coords.Col(k)
		d := col[v] - col[u]
		s += d * d
	}
	return math.Sqrt(s)
}

// RandomLayout returns a uniform random layout in the unit square — the
// null model quality comparisons are made against (any sensible drawing
// algorithm should achieve a far lower HallRatio).
func RandomLayout(n, dims int, seed uint64) *Layout {
	coords := linalg.NewDense(n, dims)
	state := seed
	for i := range coords.Data {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		coords.Data[i] = float64(z>>11) / (1 << 53)
	}
	return &Layout{Coords: coords}
}

// DistanceCorrelation measures how well the layout preserves global
// structure: the Pearson correlation between graph (hop) distance and
// Euclidean layout distance over sampled vertex pairs. Values near 1 mean
// the drawing "captures the global structure" in Figure 1's sense. pairs
// source vertices are sampled; each contributes its distances to all
// other vertices.
func DistanceCorrelation(g *graph.CSR, l *Layout, sources int, seed uint64) float64 {
	n := g.NumV
	if sources > n {
		sources = n
	}
	if sources < 1 || n < 2 {
		return 0
	}
	perm := graph.RandomPermutation(n, seed)
	hops := make([]int32, n)
	var sumX, sumY, sumXX, sumYY, sumXY float64
	var count float64
	for si := 0; si < sources; si++ {
		src := perm[si]
		bfs.Serial(g, src, hops)
		for v := 0; v < n; v++ {
			if int32(v) == src || hops[v] < 0 {
				continue
			}
			gd := float64(hops[v])
			ed := edgeLen(l, src, int32(v))
			sumX += gd
			sumY += ed
			sumXX += gd * gd
			sumYY += ed * ed
			sumXY += gd * ed
			count++
		}
	}
	if count < 2 {
		return 0
	}
	cov := sumXY/count - (sumX/count)*(sumY/count)
	vx := sumXX/count - (sumX/count)*(sumX/count)
	vy := sumYY/count - (sumY/count)*(sumY/count)
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
