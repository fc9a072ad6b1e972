package quality

import (
	"container/heap"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/pivot"
)

// oracleBar is the largest principal angle allowed between a ParHDE
// layout and its dense oracle. Both solve the same s×s problem, so what
// is left is rounding: at most 6.1e-8 rad was measured on plate and grid.
const oracleBar = 1e-6

// TestParHDEMatchesDenseOracle separates "is the pipeline right" from "is
// HDE spectral": the span of each ParHDE layout must be the dense
// Rayleigh–Ritz solution over the span of its own pivots' distance
// columns, computed here without any of the pipeline's kernels. Unlike
// TestParHDESpanNearSpectral it needs no spectral gap, only one between
// the s×s problem's 2nd and 3rd Ritz values, which each row asserts first.
func TestParHDEMatchesDenseOracle(t *testing.T) {
	for _, c := range []struct {
		name  string
		g     *graph.CSR
		pivot pivot.Strategy
		s     int
	}{
		{"plate/k-centers/s10", gen.PlateWithHoles(25, 25), pivot.KCenters, 10},
		{"plate/k-centers/s50", gen.PlateWithHoles(25, 25), pivot.KCenters, 50},
		{"plate/random-ms/s10", gen.PlateWithHoles(25, 25), pivot.RandomMS, 10},
		{"plate/random-ms/s50", gen.PlateWithHoles(25, 25), pivot.RandomMS, 50},
		{"grid/k-centers/s10", gen.Grid2D(30, 20), pivot.KCenters, 10},
		{"grid/k-centers/s50", gen.Grid2D(30, 20), pivot.KCenters, 50},
		{"grid/random-ms/s10", gen.Grid2D(30, 20), pivot.RandomMS, 10},
		{"grid/random-ms/s50", gen.Grid2D(30, 20), pivot.RandomMS, 50},
		{"weighted-road/k-centers/s20", gen.WithRandomWeights(gen.Road(30, 30, 5), 9, 5), pivot.KCenters, 20},
		{"kron/k-centers/s20", graph.LargestComponent(gen.Kron(10, 8, 3)), pivot.KCenters, 20},
		{"urand/random-ms/s20", graph.LargestComponent(gen.Urand(10, 8, 3)), pivot.RandomMS, 20},
		// The wide shape of mesh_ms64, where TripleProd's upper-triangle
		// sweep skips the most blocks: 27 columns survive DOrtho (the hop
		// columns of a 12×10×8 box span 12+10+8−3 directions beyond the
		// constant). Unequal sides keep the bottom pair apart (Ritz values
		// 0.0130, 0.0188, 0.0295); on a cube they coincide.
		{"mesh3d/random-ms/s64", gen.Mesh3D(12, 10, 8), pivot.RandomMS, 64},
	} {
		t.Run(c.name, func(t *testing.T) {
			lay, rep, err := core.ParHDE(c.g, core.Options{Subspace: c.s, Seed: 1, Pivots: c.pivot})
			if err != nil {
				t.Fatal(err)
			}
			axes, ritz := hdeOracle(t, c.g, rep.Sources)
			if gap := (ritz[2] - ritz[1]) / ritz[2]; !(gap > 1e-3) {
				t.Fatalf("Ritz values %.6g, %.6g: relative gap %.2e, the 2-D span is not defined", ritz[1], ritz[2], gap)
			}
			angles, err := PrincipalAngles(lay.Coords, axes, c.g.WeightedDegrees())
			if err != nil {
				t.Fatal(err)
			}
			if got := angles[len(angles)-1]; got > oracleBar {
				t.Errorf("largest principal angle to the dense oracle %.2e rad, bar %.0e", got, oracleBar)
			} else {
				t.Logf("largest angle %.2e rad over %d columns", got, len(ritz))
			}
		})
	}
}

// hdeOracle is HDE solved densely from the pivots alone: the Rayleigh–Ritz
// pair of the pencil (L, D) over span(B) ⊥_D 1, where B holds the distance
// columns of sources — hop counts, or Dijkstra distances on a weighted g —
// computed here. It whitens BᵀDB with SymEig, dropping its null
// directions, solves the projected problem and returns the bottom two
// Ritz vectors as an n×2 matrix and every Ritz value, ascending.
func hdeOracle(t *testing.T, g *graph.CSR, sources []int32) (*linalg.Dense, []float64) {
	t.Helper()
	n, s := g.NumV, len(sources)
	deg := make([]float64, n)
	var vol float64
	for v := range deg {
		for k := range g.Neighbors(int32(v)) {
			deg[v] += edgeWeight(g, int32(v), k)
		}
		vol += deg[v]
	}
	b, lb := linalg.NewDense(n, s), linalg.NewDense(n, s)
	for j, src := range sources {
		col := b.Col(j)
		distancesFrom(g, src, col)
		// Project out the constant: col ← col − (1ᵀD·col / 1ᵀD1)·1.
		var dsum float64
		for v, x := range col {
			dsum += deg[v] * x
		}
		for v := range col {
			col[v] -= dsum / vol
		}
		// (L·b)_v = Σ_u w(v,u)·(b_v − b_u).
		lcol := lb.Col(j)
		for v := range col {
			for k, u := range g.Neighbors(int32(v)) {
				lcol[v] += edgeWeight(g, int32(v), k) * (col[v] - col[u])
			}
		}
	}
	lam, v, err := eigen.SymEig(gram(b, b, deg))
	if err != nil {
		t.Fatal(err)
	}
	var keep []int
	for j, l := range lam {
		if l > 1e-10*lam[len(lam)-1] {
			keep = append(keep, j)
		}
	}
	w := linalg.NewDense(s, len(keep))
	for j, k := range keep {
		for i := 0; i < s; i++ {
			w.Set(i, j, v.At(i, k)/math.Sqrt(lam[k]))
		}
	}
	bw := mul(b, w)
	ritz, y, err := eigen.SymEig(gram(bw, mul(lb, w), nil))
	if err != nil {
		t.Fatal(err)
	}
	bottom := linalg.NewDense(len(keep), 2)
	for j := 0; j < 2; j++ {
		copy(bottom.Col(j), y.Col(j))
	}
	return mul(bw, bottom), ritz
}

// mul returns the plain product x·y.
func mul(x, y *linalg.Dense) *linalg.Dense {
	out := linalg.NewDense(x.Rows, y.Cols)
	for j := 0; j < y.Cols; j++ {
		for k := 0; k < x.Cols; k++ {
			linalg.Axpy(y.At(k, j), x.Col(k), out.Col(j))
		}
	}
	return out
}

// edgeWeight is the weight of v's k-th edge: 1 on an unweighted graph.
func edgeWeight(g *graph.CSR, v int32, k int) float64 {
	if !g.Weighted() {
		return 1
	}
	return g.NeighborWeights(v)[k]
}

// distancesFrom writes src's distance to every vertex of the connected g
// into dist: a queue BFS on an unweighted g, Dijkstra on a weighted one.
func distancesFrom(g *graph.CSR, src int32, dist []float64) {
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[src] = 0
	if !g.Weighted() {
		queue := []int32{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if math.IsInf(dist[u], 1) {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		return
	}
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for k, u := range g.Neighbors(it.v) {
			if d := it.d + g.NeighborWeights(it.v)[k]; d < dist[u] {
				dist[u] = d
				heap.Push(pq, distItem{u, d})
			}
		}
	}
}

type distItem struct {
	v int32
	d float64
}

// distHeap is a min-heap of tentative distances for Dijkstra.
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
