// Package pivot implements the BFS phase of ParHDE: source (pivot)
// selection and the s traversals that build the distance matrix B. Two
// strategies from the paper are provided. The default is the
// farthest-first 2-approximation to k-centers (Gonzalez), where each BFS
// is internally parallel and the next source is the vertex maximizing the
// distance to all previous sources. The alternative (§4.4, Table 6) picks
// pivots uniformly at random without repetition and runs whole BFSes
// concurrently — lower overhead for small or high-diameter graphs and when
// s exceeds the core count.
package pivot

import (
	"sync"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/parallel"
)

// Strategy selects the pivot-selection algorithm.
type Strategy int

const (
	// KCenters is the farthest-first strategy of Algorithm 3 (default).
	KCenters Strategy = iota
	// Random picks pivots uniformly at random and runs serial BFSes
	// concurrently, one per worker.
	Random
	// RandomMS picks pivots uniformly at random and runs them through the
	// bit-parallel multi-source BFS (64 searches share each adjacency
	// scan) — the strongest engine when s is large relative to cores.
	RandomMS
)

func (s Strategy) String() string {
	switch s {
	case Random:
		return "random"
	case RandomMS:
		return "random-msbfs"
	default:
		return "k-centers"
	}
}

// PhaseStats decomposes BFS-phase time the way Figure 5 (middle) does:
// pure traversal versus "other" overhead (source selection, the min-update
// reduction, and the int→float widening of B's columns).
type PhaseStats struct {
	Sources []int32
	// Traversal holds per-traversal statistics: one entry per BFS under
	// KCenters, one per 64-source batch under RandomMS (direction-step
	// counts included either way; plain Random records none).
	Traversal    []bfs.Stats
	ScannedEdges int64
}

// Scratch bundles the reusable buffers of the k-centers BFS phase: the
// traversal scratch plus the per-pivot hop vector and the running
// minimum-distance vector that drives farthest-first source selection. A
// pooled workspace owns one and hands it to PhaseBudget so repeated
// layouts on same-shaped graphs re-pay no BFS-phase allocations.
type Scratch struct {
	// BFS is the frontier/queue scratch shared by all s traversals.
	BFS *bfs.Scratch
	// Dist receives each traversal's hop distances (length ≥ n).
	Dist []int32
	// DMin tracks min distance to all previous sources (length ≥ n).
	DMin []int32
	// Multi-source buffers (lazily sized by the RandomMS strategy): the
	// pivot permutation and one 64×n distance-row arena per batch.
	perm    []int32
	msArena []int32
	msRows  [][]int32
	// Per-tile argmax arenas for the fused widen/min/argmax reduction,
	// sized by linalg.ReduceBlocks(n) — a function of n only, so the
	// arenas can never be desynchronized by a worker-count change.
	amIdx  []int
	amVals []int32
}

// ensureMS sizes the RandomMS-only buffers: the permutation vector and
// a 64-row distance arena covering one MSBFS batch.
func (sc *Scratch) ensureMS(n int) {
	if cap(sc.perm) < n {
		sc.perm = make([]int32, n)
	}
	sc.perm = sc.perm[:n]
	if cap(sc.msArena) < 64*n {
		sc.msArena = make([]int32, 64*n)
	}
	sc.msArena = sc.msArena[:64*n]
	if sc.msRows == nil {
		sc.msRows = make([][]int32, 64)
	}
	for i := range sc.msRows {
		sc.msRows[i] = sc.msArena[i*n : (i+1)*n]
	}
}

// NewScratch returns BFS-phase scratch for n-vertex graphs.
func NewScratch(n int) *Scratch {
	sc := &Scratch{}
	sc.Ensure(n)
	return sc
}

// Ensure grows the scratch to cover n vertices; sufficient buffers are
// kept, so same-shape reuse touches no allocator.
func (sc *Scratch) Ensure(n int) {
	if sc.BFS == nil {
		sc.BFS = bfs.NewScratch(n, parallel.Workers())
	}
	if cap(sc.Dist) < n {
		sc.Dist = make([]int32, n)
		sc.DMin = make([]int32, n)
	}
	sc.Dist, sc.DMin = sc.Dist[:n], sc.DMin[:n]
	if tiles := linalg.ReduceBlocks(n); cap(sc.amIdx) < tiles {
		sc.amIdx = make([]int, tiles)
		sc.amVals = make([]int32, tiles)
	}
}

// ArgmaxArenas exposes the per-tile argmax arenas (sized by Ensure) for
// callers that run the fused widen/min/argmax reduction themselves — the
// coupled core path, which owns the pivot loop but reuses this scratch.
func (sc *Scratch) ArgmaxArenas() ([]int, []int32) { return sc.amIdx, sc.amVals }

// Phase runs the complete BFS phase on the live worker budget with
// private buffers; see PhaseBudget.
func Phase(g *graph.CSR, b *linalg.Dense, start int32, strat Strategy, opt bfs.Options, onTraversal, onOther func(f func())) PhaseStats {
	return PhaseBudget(parallel.Live(), g, b, start, strat, opt, nil, onTraversal, onOther)
}

// PhaseBudget runs the complete BFS phase: s traversals from pivots chosen
// by the given strategy, writing hop distances into the n×s column-major
// matrix b. Unreachable is impossible by precondition (connected graph).
// start is the randomly-chosen first vertex (Algorithm 3, line 4); timers
// for traversal vs. other work are accumulated via the optional hooks.
// The phase runs over sc's pooled buffers (nil allocates fresh ones): the
// k-centers and multi-source random strategies consume the scratch —
// plain Random keeps its per-worker private distance vectors — and results
// are bit-identical either way. Live budgets are snapshotted once on
// entry, so every traversal, fill, and reduction of the phase shares one
// worker count — a GOMAXPROCS change mid-phase cannot re-partition running
// kernels.
func PhaseBudget(bud parallel.Budget, g *graph.CSR, b *linalg.Dense, start int32, strat Strategy, opt bfs.Options, sc *Scratch, onTraversal, onOther func(f func())) PhaseStats {
	if !bud.Fixed() {
		bud = parallel.SnapshotBudget()
	}
	if onTraversal == nil {
		onTraversal = func(f func()) { f() }
	}
	if onOther == nil {
		onOther = func(f func()) { f() }
	}
	switch strat {
	case Random:
		return randomPhase(bud, g, b, start, onTraversal, onOther)
	case RandomMS:
		return randomMSPhase(bud, g, b, start, opt, sc, onTraversal, onOther)
	default:
		return kCentersPhase(bud, g, b, start, opt, sc, onTraversal, onOther)
	}
}

func kCentersPhase(bud parallel.Budget, g *graph.CSR, b *linalg.Dense, start int32, opt bfs.Options, sc *Scratch, onTraversal, onOther func(f func())) PhaseStats {
	n := g.NumV
	s := b.Cols
	if sc == nil {
		sc = NewScratch(n)
	} else {
		sc.Ensure(n)
	}
	runner := bfs.NewRunner(g, opt, sc.BFS, bud)
	dist, dmin := sc.Dist, sc.DMin
	if bud.Serial(n) {
		for i := range dmin {
			dmin[i] = int32(1) << 30
		}
	} else {
		bud.For(n, func(i int) { dmin[i] = int32(1) << 30 })
	}

	st := PhaseStats{
		Sources:   make([]int32, 0, s),
		Traversal: make([]bfs.Stats, 0, s),
	}
	src := start
	// The timing hooks' closures are hoisted out of the pivot loop (and
	// read their loop state through captured variables) so the
	// steady-state loop body allocates nothing.
	var i int
	var ts bfs.Stats
	traverse := func() { ts = runner.Distances(src, dist) }
	other := func() {
		// One fused pass: widen the distances into the matrix column,
		// d(j) ← min(d(j), b_i(j)), and pick the next source as the
		// farthest vertex from all previous sources (lines 13-15 of
		// Algorithm 1).
		src = int32(linalg.WidenMinArgmaxBudget(bud, b.Col(i), dmin, dist, sc.amIdx, sc.amVals))
	}
	for i = 0; i < s; i++ {
		st.Sources = append(st.Sources, src)
		onTraversal(traverse)
		st.Traversal = append(st.Traversal, ts)
		st.ScannedEdges += ts.ScannedEdges
		onOther(other)
	}
	return st
}

// randomPhase runs serial BFSes concurrently: pivot i is processed by
// whichever worker claims it, each traversal single-threaded. With s ≥
// workers this keeps every core busy without per-level barriers.
func randomPhase(bud parallel.Budget, g *graph.CSR, b *linalg.Dense, start int32, onTraversal, onOther func(f func())) PhaseStats {
	n := g.NumV
	s := b.Cols
	st := PhaseStats{Sources: make([]int32, s)}
	onOther(func() {
		// Uniform pivots without repetition, seeded by the start vertex so
		// runs are reproducible.
		perm := graph.RandomPermutation(n, uint64(start)*0x9e3779b97f4a7c15+1)
		st.Sources[0] = start
		k := 1
		for _, v := range perm {
			if k == s {
				break
			}
			if v != start {
				st.Sources[k] = v
				k++
			}
		}
	})
	onTraversal(func() {
		workers := bud.Workers()
		var next int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		var scanned int64
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				dist := make([]int32, n)
				var local int64
				for {
					mu.Lock()
					i := int(next)
					next++
					mu.Unlock()
					if i >= s {
						break
					}
					bfs.Serial(g, st.Sources[i], dist)
					col := b.Col(i)
					for j := 0; j < n; j++ {
						col[j] = float64(dist[j])
					}
					local += int64(len(g.Adj))
				}
				mu.Lock()
				scanned += local
				mu.Unlock()
			}()
		}
		wg.Wait()
		st.ScannedEdges = scanned
	})
	return st
}

// randomMSPhase draws random pivots like randomPhase but traverses them in
// batches of 64 with the bit-parallel multi-source BFS, sharing adjacency
// scans across all searches in a batch. With a scratch the batch distance
// rows, the pivot permutation, and the traversal masks all come from
// pooled buffers, so the steady-state phase performs no O(n) allocations.
func randomMSPhase(bud parallel.Budget, g *graph.CSR, b *linalg.Dense, start int32, opt bfs.Options, sc *Scratch, onTraversal, onOther func(f func())) PhaseStats {
	n := g.NumV
	s := b.Cols
	if sc == nil {
		sc = &Scratch{}
	}
	sc.ensureMS(n)
	if sc.BFS == nil {
		sc.BFS = bfs.NewScratch(n, bud.Workers())
	}
	st := PhaseStats{
		Sources:   make([]int32, s),
		Traversal: make([]bfs.Stats, 0, (s+63)/64),
	}
	onOther(func() {
		perm := graph.RandomPermutationInto(sc.perm, uint64(start)*0x9e3779b97f4a7c15+1)
		st.Sources[0] = start
		k := 1
		for _, v := range perm {
			if k == s {
				break
			}
			if v != start {
				st.Sources[k] = v
				k++
			}
		}
	})
	// Hoisted batch closures: the loop body reads batch/hi through the
	// captured variables, so the steady-state loop allocates nothing.
	var batch, hi int
	traverse := func() {
		ms := bfs.MSBFS(bud, g, st.Sources[batch:hi], sc.msRows[:hi-batch], sc.BFS, opt)
		st.Traversal = append(st.Traversal, ms)
		st.ScannedEdges += ms.ScannedEdges
	}
	widen := func() {
		for i := batch; i < hi; i++ {
			linalg.Int32ToFloat64Budget(bud, b.Col(i), sc.msRows[i-batch])
		}
	}
	for batch = 0; batch < s; batch += 64 {
		hi = batch + 64
		if hi > s {
			hi = s
		}
		onTraversal(traverse)
		onOther(widen)
	}
	return st
}
