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

// Evaluate computes layout-quality metrics for l on g in two sweeps over
// parallel's fixed tile grid, one over the vertices and one over the
// edges, with each tile's partial sums folded in tile order, so the
// result is bitwise identical for every GOMAXPROCS. Nothing it allocates
// grows with the graph: the degrees, the centered axes and the
// unit-normalized coordinates are never materialized.
func Evaluate(g *graph.CSR, l *Layout) Quality {
	p := l.Dims()
	workers := parallel.Live().Workers()
	e := evalSweep{g: g, x: l.Coords.Data, rows: l.Coords.Rows, p: p}
	// The vertex sweep's vector is Σdeg, then Σ deg·xₖ, min xₖ and max xₖ
	// for every axis k; the edge sweep's is xᵀLx, Σ deg·(x − mean)², and
	// the sum and the sum of squares of the unit-normalized edge lengths.
	width := 1 + 3*p
	buf := make([]float64, 2*width+p+4)
	moments, scratch := buf[:width], buf[width:2*width:2*width]
	mean, sums := buf[2*width:2*width+p], buf[2*width+p:]
	for k := 0; k < p; k++ {
		moments[1+p+k], moments[1+2*p+k] = math.Inf(1), math.Inf(-1)
	}
	parallel.FoldTiles(workers, g.NumV, e, moments, scratch, evalSweep.vertices, foldMoments)

	// Equation 1's constraint xᵀD1 = 0: each axis is measured about its
	// D-weighted mean. The energy xᵀLx needs no centering (L·1 = 0).
	if dsum := moments[0]; dsum > 0 {
		for k := range mean {
			mean[k] = moments[1+k] / dsum
		}
	}
	// A drawing's scale: the widest axis spans [0, 1].
	for k := 0; k < p; k++ {
		if s := moments[1+2*p+k] - moments[1+p+k]; s > e.span {
			e.span = s
		}
	}
	if e.span == 0 {
		e.span = 1
	}
	e.mean = mean
	parallel.FoldTiles(workers, g.NumV, e, sums, scratch, evalSweep.edges, foldSums)
	lap, den, sum, sumSq := sums[0], sums[1], sums[2], sums[3]

	q := Quality{}
	if den > 0 {
		q.HallRatio = lap / den
	}
	if count := g.NumEdges(); count > 0 {
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

// evalSweep is the operands of Evaluate's two sweeps: the graph, the
// layout's column-major coordinates (x[k·rows + v] is vertex v's axis k)
// and, for the edge sweep, the axes' D-weighted means and the
// normalization scale.
type evalSweep struct {
	g       *graph.CSR
	x, mean []float64
	rows, p int
	span    float64
}

// degree returns v's weighted degree, its weights summed in adjacency
// order as graph.WeightedDegrees sums them.
func (e evalSweep) degree(v int) float64 {
	g := e.g
	o0, o1 := g.Offsets[v], g.Offsets[v+1]
	if g.Weights == nil {
		return float64(o1 - o0)
	}
	var s float64
	for _, w := range g.Weights[o0:o1] {
		s += w
	}
	return s
}

// vertices is one tile of the vertex sweep.
func (e evalSweep) vertices(_, lo, hi int, part []float64) {
	x, rows, p := e.x, e.rows, e.p
	sums, lows, highs := part[1:1+p], part[1+p:1+2*p], part[1+2*p:]
	for k := range lows {
		lows[k], highs[k] = math.Inf(1), math.Inf(-1)
	}
	var dsum float64
	for v := lo; v < hi; v++ {
		deg := e.degree(v)
		dsum += deg
		for k := 0; k < p; k++ {
			xv := x[k*rows+v]
			sums[k] += deg * xv
			if xv < lows[k] {
				lows[k] = xv
			}
			if xv > highs[k] {
				highs[k] = xv
			}
		}
	}
	part[0] = dsum
}

// edges is one tile of the edge sweep: every edge {u, v} once, from its
// smaller end v, and every vertex's centered D-norm, its degree summed
// along the row as degree sums it.
func (e evalSweep) edges(_, lo, hi int, part []float64) {
	g, x, rows, p := e.g, e.x, e.rows, e.p
	var lap, den, sum, sumSq float64
	for v := lo; v < hi; v++ {
		var deg float64
		for a := g.Offsets[v]; a < g.Offsets[v+1]; a++ {
			w := 1.0
			if g.Weights != nil {
				w = g.Weights[a]
			}
			deg += w
			u := int(g.Adj[a])
			if u <= v {
				continue
			}
			var d2 float64
			for k := 0; k < p; k++ {
				d := x[k*rows+v] - x[k*rows+u]
				d2 += d * d
			}
			lap += w * d2
			length := math.Sqrt(d2) / e.span
			sum += length
			sumSq += length * length
		}
		var c2 float64
		for k := 0; k < p; k++ {
			c := x[k*rows+v] - e.mean[k]
			c2 += c * c
		}
		den += deg * c2
	}
	part[0], part[1], part[2], part[3] = lap, den, sum, sumSq
}

// foldMoments folds one tile's vertex-sweep vector into acc: the 1+p sums
// add, the p minima and p maxima keep the extreme.
func foldMoments(acc, part []float64) {
	p := (len(acc) - 1) / 3
	foldSums(acc[:1+p], part[:1+p])
	for k := 1 + p; k < 1+2*p; k++ {
		if part[k] < acc[k] {
			acc[k] = part[k]
		}
		if part[k+p] > acc[k+p] {
			acc[k+p] = part[k+p]
		}
	}
}

// foldSums adds one tile's partial sums into acc.
func foldSums(acc, part []float64) {
	for i, v := range part {
		acc[i] += v
	}
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
