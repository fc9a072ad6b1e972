// Package pivot implements the BFS phase of ParHDE: source (pivot)
// selection and the s traversals that produce the distance columns. Two
// strategies from the paper are provided. The default is the
// farthest-first 2-approximation to k-centers (Gonzalez), where each BFS
// is internally parallel and the next source is the vertex maximizing the
// distance to all previous sources. The alternative (§4.4, Table 6) picks
// pivots uniformly at random without repetition and runs whole BFSes
// concurrently — lower overhead for small or high-diameter graphs and when
// s exceeds the core count.
//
// Every strategy streams: Stream hands each column, in pivot order, to a
// consumer as soon as it is produced, so the n×s distance matrix B need
// never be stored. PhaseBudget is the same stream written into B, for the
// callers that need the whole matrix.
package pivot

import (
	"context"

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
// reduction, and the int→float widening of each column).
type PhaseStats struct {
	Sources []int32
	// Traversal holds per-traversal statistics: one entry per BFS under
	// KCenters, one per 64-source batch under RandomMS (direction-step
	// counts included either way; plain Random records none).
	Traversal    []bfs.Stats
	ScannedEdges int64
}

// Emit receives the distance columns of a streamed phase in pivot order:
// col holds pivot i's distance to every vertex and is valid only during
// the call. A non-nil error stops the phase before its next traversal.
type Emit func(i int, col []float64) error

// Scratch bundles the reusable buffers of the BFS phase: the traversal
// scratch, the per-pivot hop vector and the running minimum-distance
// vector that drives farthest-first source selection, and the widened
// column every strategy hands its consumer. A pooled workspace owns one
// and hands it to Stream so repeated layouts on same-shaped graphs re-pay
// no BFS-phase allocations.
type Scratch struct {
	trav *bfs.Scratch // frontier/queue scratch shared by all s traversals
	dist []int32      // each traversal's hop distances
	dmin []int32      // min distance to all previous sources
	col  []float64
	// Random-strategy buffers, sized on first use: the pivot permutation,
	// an arena of length-n distance rows (one per MSBFS source in a batch,
	// or one per worker of a Random round) and the traversal scratch of
	// each Random worker's one-worker runner.
	perm    []int32
	arena   []int32
	rowsBuf [][]int32
	travs   []*bfs.Scratch
	// Per-tile argmax arenas for the fused widen/min/argmax reduction,
	// sized by parallel.ReduceBlocks(n) — a function of n only, so the
	// arenas can never be desynchronized by a worker-count change.
	amIdx  []int
	amVals []int32
}

// NewScratch returns BFS-phase scratch for n-vertex graphs.
func NewScratch(n int) *Scratch {
	sc := &Scratch{}
	sc.Ensure(n)
	return sc
}

// Ensure grows the k-centers buffers and the column to cover n vertices;
// sufficient buffers are kept, so same-shape reuse touches no allocator.
func (sc *Scratch) Ensure(n int) {
	if sc.trav == nil {
		sc.trav = bfs.NewScratch(n, 1) // a Runner grows the per-worker queues
	}
	sc.dist, sc.dmin, sc.col = grow(sc.dist, n), grow(sc.dmin, n), grow(sc.col, n)
	tiles := parallel.ReduceBlocks(n)
	sc.amIdx, sc.amVals = grow(sc.amIdx, tiles), grow(sc.amVals, tiles)
}

// rows returns k length-n rows over the scratch's arena.
func (sc *Scratch) rows(n, k int) [][]int32 {
	sc.arena = grow(sc.arena, k*n)
	sc.rowsBuf = grow(sc.rowsBuf, k)
	for i := range sc.rowsBuf {
		sc.rowsBuf[i] = sc.arena[i*n : (i+1)*n]
	}
	return sc.rowsBuf
}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// PhaseBudget is Stream materialized: pivot i's distances land in column
// i of the n×s column-major matrix b, where s = b.Cols.
func PhaseBudget(bud parallel.Budget, g *graph.CSR, b *linalg.Dense, start int32, strat Strategy, opt bfs.Options, sc *Scratch, onTraversal, onOther func(f func())) PhaseStats {
	st, _ := Stream(context.Background(), bud, g, b.Cols, start, strat, opt, sc, fill(b), onTraversal, onOther)
	return st
}

// fill is the consumer that stores each streamed column in b.
func fill(b *linalg.Dense) Emit {
	return func(i int, col []float64) error {
		copy(b.Col(i), col)
		return nil
	}
}

// Stream runs the complete BFS phase: s traversals from pivots chosen by
// the given strategy, each column of hop distances handed to emit in pivot
// order (unreached vertices read as bfs.Unreached, i.e. -1). start is the
// randomly-chosen first vertex (Algorithm 3, line 4); timers for traversal
// vs. other work are accumulated via the optional hooks. The phase runs
// over sc's pooled buffers (nil allocates fresh ones) and the columns are
// bit-identical either way. Live budgets are snapshotted once on entry, so
// every traversal, fill, and reduction of the phase shares one worker
// count — a GOMAXPROCS change mid-phase cannot re-partition running
// kernels. ctx is checked before every traversal — each pivot under
// KCenters, each round under Random, each 64-source batch under RandomMS —
// and the first error from ctx or emit stops the phase and is returned.
func Stream(ctx context.Context, bud parallel.Budget, g *graph.CSR, s int, start int32, strat Strategy, opt bfs.Options, sc *Scratch, emit Emit, onTraversal, onOther func(f func())) (PhaseStats, error) {
	if !bud.Fixed() {
		bud = parallel.SnapshotBudget()
	}
	if onTraversal == nil {
		onTraversal = func(f func()) { f() }
	}
	if onOther == nil {
		onOther = func(f func()) { f() }
	}
	if sc == nil {
		sc = &Scratch{}
	}
	switch strat {
	case Random:
		return randomPhase(ctx, bud, g, s, start, sc, emit, onTraversal, onOther)
	case RandomMS:
		return randomMSPhase(ctx, bud, g, s, start, opt, sc, emit, onTraversal, onOther)
	default:
		return kCentersPhase(ctx, bud, g, s, start, opt, sc, emit, onTraversal, onOther)
	}
}

func kCentersPhase(ctx context.Context, bud parallel.Budget, g *graph.CSR, s int, start int32, opt bfs.Options, sc *Scratch, emit Emit, onTraversal, onOther func(f func())) (PhaseStats, error) {
	n := g.NumV
	sc.Ensure(n)
	runner := bfs.NewRunner(g, opt, sc.trav, bud)
	dist, dmin, col := sc.dist, sc.dmin, sc.col
	parallel.Blocks(bud.BlockWorkers(n), n, dmin, resetDmin)

	st := PhaseStats{
		Sources:   make([]int32, 0, s),
		Traversal: make([]bfs.Stats, 0, s),
	}
	src := start
	// The timing hooks' closures are hoisted out of the pivot loop (and
	// read their loop state through captured variables) so the
	// steady-state loop body allocates nothing.
	var ts bfs.Stats
	traverse := func() { ts = runner.Distances(src, dist) }
	other := func() {
		// One fused pass: widen the distances into the column,
		// d(j) ← min(d(j), b_i(j)), and pick the next source as the
		// farthest vertex from all previous sources (lines 13-15 of
		// Algorithm 1).
		src = int32(linalg.WidenMinArgmaxBudget(bud, col, dmin, dist, sc.amIdx, sc.amVals))
	}
	for i := 0; i < s; i++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		st.Sources = append(st.Sources, src)
		onTraversal(traverse)
		st.Traversal = append(st.Traversal, ts)
		st.ScannedEdges += ts.ScannedEdges
		onOther(other)
		if err := emit(i, col); err != nil {
			return st, err
		}
	}
	return st, nil
}

// resetDmin is the k-centers dmin reset over [lo, hi): every vertex
// starts "infinitely" far from the (still empty) pivot set.
func resetDmin(dmin []int32, _, lo, hi int) {
	d := dmin[lo:hi]
	for i := range d {
		d[i] = int32(1) << 30
	}
}

// drawSources fills sources with start followed by distinct uniformly
// random pivots, drawn from a permutation seeded by start so runs are
// reproducible.
func drawSources(sc *Scratch, n int, start int32, sources []int32) {
	sc.perm = graph.RandomPermutationInto(grow(sc.perm, n), uint64(start)*0x9e3779b97f4a7c15+1)
	sources[0] = start
	k := 1
	for _, v := range sc.perm {
		if k == len(sources) {
			break
		}
		if v != start {
			sources[k] = v
			k++
		}
	}
}

// randomPhase runs serial BFSes concurrently, in rounds of one pivot per
// worker, each traversal into its worker's row by a one-worker Runner on
// the worker's own pooled scratch, pinned top-down like the bfs.Serial it
// replaced. With s ≥ workers this keeps every core busy without per-level
// barriers; the round's columns are then widened and emitted in pivot
// order.
func randomPhase(ctx context.Context, bud parallel.Budget, g *graph.CSR, s int, start int32, sc *Scratch, emit Emit, onTraversal, onOther func(f func())) (PhaseStats, error) {
	n := g.NumV
	st := PhaseStats{Sources: make([]int32, s)}
	onOther(func() { drawSources(sc, n, start, st.Sources) })
	dists := sc.rows(n, min(bud.Workers(), s))
	runners := make([]*bfs.Runner, len(dists))
	for len(sc.travs) < len(dists) {
		sc.travs = append(sc.travs, &bfs.Scratch{})
	}
	for k := range runners {
		runners[k] = bfs.NewRunner(g, bfs.Options{ForceTopDown: true}, sc.travs[k], parallel.FixedBudget(1))
	}
	sc.col = grow(sc.col, n)
	col := sc.col
	var lo, hi, i int
	// Round worker k traverses pivot lo+k; the closures are built once.
	one := func(k, _, _ int) { runners[k].Distances(st.Sources[lo+k], dists[k]) }
	traverse := func() {
		parallel.ForBlockIndexed(hi-lo, hi-lo, one)
		st.ScannedEdges += int64(hi-lo) * int64(len(g.Adj))
	}
	widen := func() { linalg.Int32ToFloat64Budget(bud, col, dists[i-lo]) }
	for lo = 0; lo < s; lo = hi {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		hi = min(lo+len(dists), s)
		onTraversal(traverse)
		for i = lo; i < hi; i++ {
			onOther(widen)
			if err := emit(i, col); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// randomMSPhase draws random pivots like randomPhase but traverses them in
// batches of 64 with the bit-parallel multi-source BFS, sharing adjacency
// scans across all searches in a batch, then widens and emits the batch's
// rows in turn. With a scratch the batch distance rows, the pivot
// permutation, and the traversal masks all come from pooled buffers, so
// the steady-state phase performs no O(n) allocations.
func randomMSPhase(ctx context.Context, bud parallel.Budget, g *graph.CSR, s int, start int32, opt bfs.Options, sc *Scratch, emit Emit, onTraversal, onOther func(f func())) (PhaseStats, error) {
	n := g.NumV
	if sc.trav == nil {
		sc.trav = &bfs.Scratch{} // MSBFS sizes only its mask slabs
	}
	st := PhaseStats{
		Sources:   make([]int32, s),
		Traversal: make([]bfs.Stats, 0, (s+63)/64),
	}
	onOther(func() { drawSources(sc, n, start, st.Sources) })
	rows := sc.rows(n, min(64, s))
	sc.col = grow(sc.col, n)
	col := sc.col
	// Hoisted batch closures: the loop body reads batch/hi/i through the
	// captured variables, so the steady-state loop allocates nothing.
	var batch, hi, i int
	traverse := func() {
		ms := bfs.MSBFS(bud, g, st.Sources[batch:hi], rows[:hi-batch], sc.trav, opt)
		st.Traversal = append(st.Traversal, ms)
		st.ScannedEdges += ms.ScannedEdges
	}
	widen := func() { linalg.Int32ToFloat64Budget(bud, col, rows[i-batch]) }
	for batch = 0; batch < s; batch = hi {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		hi = min(batch+64, s)
		onTraversal(traverse)
		for i = batch; i < hi; i++ {
			onOther(widen)
			if err := emit(i, col); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}
