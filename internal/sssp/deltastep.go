// Package sssp implements single-source shortest paths for the weighted
// extension of ParHDE (ICPP'20 §3.3): the Δ-stepping algorithm of Meyer
// and Sanders as organized in the GAP Benchmark Suite — shared buckets plus
// thread-local buckets, light/heavy edge partitioning, no bucket
// recycling, settled vertices skipped by a current-distance check — and a
// binary-heap Dijkstra used as the correctness oracle.
package sssp

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// Inf marks unreachable vertices in a distance vector.
var Inf = math.Inf(1)

// Stats reports work done by a Δ-stepping run.
type Stats struct {
	Buckets      int   // non-empty buckets processed
	LightPhases  int   // inner light-edge relaxation rounds
	Relaxations  int64 // successful distance improvements
	EdgesScanned int64
}

// DeltaStepping computes shortest-path distances from src on a weighted
// graph, writing them into dist (length NumV; unreachable = +Inf). delta
// is the bucket width Δ; edges with weight ≤ Δ are light and are relaxed
// iteratively within a bucket, heavier edges once per bucket. delta must
// be positive.
func DeltaStepping(g *graph.CSR, src int32, delta float64, dist []float64) Stats {
	if !g.Weighted() {
		panic("sssp: DeltaStepping requires a weighted graph")
	}
	if delta <= 0 {
		panic("sssp: non-positive delta")
	}
	n := g.NumV
	bits := make([]uint64, n)
	infBits := math.Float64bits(Inf)
	bud := parallel.Live()
	bud.For(n, func(i int) { bits[i] = infBits })
	atomic.StoreUint64(&bits[src], math.Float64bits(0))

	var st Stats
	workers := bud.Workers()
	type bv struct {
		bucket int32
		v      int32
	}
	locals := make([][]bv, workers)

	// Shared buckets, grown on demand; GAP likewise never recycles them.
	var buckets [][]int32
	putShared := func(b int32, v int32) {
		for int(b) >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[b] = append(buckets[b], v)
	}
	putShared(0, src)

	distOf := func(v int32) float64 {
		return math.Float64frombits(atomic.LoadUint64(&bits[v]))
	}
	relax := func(v int32, nd float64) bool {
		for {
			old := atomic.LoadUint64(&bits[v])
			if nd >= math.Float64frombits(old) {
				return false
			}
			if atomic.CompareAndSwapUint64(&bits[v], old, math.Float64bits(nd)) {
				return true
			}
		}
	}
	bucketOf := func(d float64) int32 { return int32(d / delta) }

	// processFrontier relaxes the given edge class for every live vertex in
	// frontier, accumulating newly bucketed vertices in per-worker locals.
	processFrontier := func(frontier []int32, cur int32, light bool) {
		var wg sync.WaitGroup
		wg.Add(workers)
		var scanned, relaxed int64
		for wk := 0; wk < workers; wk++ {
			go func(wk int) {
				defer wg.Done()
				local := locals[wk][:0]
				var lScan, lRelax int64
				lo := wk * len(frontier) / workers
				hi := (wk + 1) * len(frontier) / workers
				for _, u := range frontier[lo:hi] {
					du := distOf(u)
					// Skip vertices already settled into an earlier bucket
					// (stale queue entries), per the GAP implementation.
					if bucketOf(du) != cur && light {
						continue
					}
					adj := g.Adj[g.Offsets[u]:g.Offsets[u+1]]
					wts := g.Weights[g.Offsets[u]:g.Offsets[u+1]]
					for k, v := range adj {
						w := wts[k]
						if light != (w <= delta) {
							continue
						}
						lScan++
						nd := du + w
						if relax(v, nd) {
							lRelax++
							local = append(local, bv{bucketOf(nd), v})
						}
					}
				}
				locals[wk] = local
				atomic.AddInt64(&scanned, lScan)
				atomic.AddInt64(&relaxed, lRelax)
			}(wk)
		}
		wg.Wait()
		st.EdgesScanned += scanned
		st.Relaxations += relaxed
		// Second phase: merge thread-local buckets into the shared ones.
		for wk := 0; wk < workers; wk++ {
			for _, e := range locals[wk] {
				putShared(e.bucket, e.v)
			}
		}
	}

	for cur := int32(0); ; cur++ {
		for int(cur) < len(buckets) && buckets[cur] == nil {
			cur++
		}
		if int(cur) >= len(buckets) {
			break
		}
		st.Buckets++
		// Settled set for this bucket feeds the single heavy pass.
		var settled []int32
		for len(buckets[cur]) > 0 {
			st.LightPhases++
			frontier := buckets[cur]
			buckets[cur] = nil
			// Deduplicate against settled by distance check inside
			// processFrontier; remember for heavy pass.
			for _, u := range frontier {
				if bucketOf(distOf(u)) == cur {
					settled = append(settled, u)
				}
			}
			processFrontier(frontier, cur, true)
		}
		processFrontier(settled, cur, false)
	}

	bud.For(n, func(i int) { dist[i] = math.Float64frombits(bits[i]) })
	return st
}

// SuggestDelta returns the standard Δ heuristic: average edge weight times
// (roughly) the ratio that balances light-phase rounds against bucket
// count — Δ = max weight / average degree is the GAP default; we use the
// simpler max(1, avgWeight) when degrees are tiny.
func SuggestDelta(g *graph.CSR) float64 {
	if !g.Weighted() || len(g.Weights) == 0 {
		return 1
	}
	var maxW float64
	for _, w := range g.Weights {
		if w > maxW {
			maxW = w
		}
	}
	avgDeg := float64(len(g.Adj)) / float64(g.NumV)
	d := maxW / avgDeg
	if d <= 0 {
		d = 1
	}
	return d
}
