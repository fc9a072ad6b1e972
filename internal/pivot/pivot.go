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
// never be stored; Fill is the consumer that writes B, for the callers
// that need the whole matrix.
package pivot

import (
	"context"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/phase"
)

// Strategy selects the pivot-selection algorithm.
type Strategy int

const (
	// KCenters is the farthest-first strategy of Algorithm 3 (default).
	KCenters Strategy = iota
	// Random picks pivots uniformly at random and runs serial BFSes
	// concurrently, one per worker.
	Random
)

// RandomMS is Random. It named a bit-parallel 64-source engine whose
// columns were bitwise those of Random's concurrent BFSes; the alias
// stays because the benchmark harness names the strategy.
const RandomMS = Random

func (s Strategy) String() string {
	if s == Random {
		return "random"
	}
	return "k-centers"
}

// PhaseStats is what the BFS phase records besides its time, which it
// charges to a phase clock.
type PhaseStats struct {
	Sources []int32
	// Traversal holds per-traversal statistics, direction-step counts
	// included: one entry per BFS under KCenters, none under Random.
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
	trav *bfs.Scratch // k-centers frontier/queue scratch shared by all s traversals
	dist []int32      // each traversal's hop distances
	dmin []int32      // min distance to all previous sources
	col  []float64
	// Random-strategy buffers, sized on first use: the pivot permutation,
	// an arena of length-n distance rows, one per worker of a round, each
	// worker's one-worker runner with its own traversal scratch, and the
	// statistics of each worker's traversal in the current round.
	perm    []int32
	arena   []int32
	rowsBuf [][]int32
	runners []*bfs.Runner
	stats   []bfs.Stats
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

// PhaseBudget is Stream into Fill(b), timed by a hook pair instead of a
// clock: each traversal runs inside onTraversal, the rest inside onOther.
func PhaseBudget(bud parallel.Budget, g *graph.CSR, b *linalg.Dense, start int32, strat Strategy, opt bfs.Options, sc *Scratch, onTraversal, onOther func(f func())) PhaseStats {
	hooks := func(p phase.ID, f func()) {
		if p == phase.BFSTraversal {
			onTraversal(f)
		} else {
			onOther(f)
		}
	}
	st, _ := stream(context.Background(), bud, g, b.Cols, start, strat, opt, sc, Fill(b), hooks)
	return st
}

// Fill returns the consumer that stores each streamed column in b.
func Fill(b *linalg.Dense) Emit {
	return func(i int, col []float64) error {
		copy(b.Col(i), col)
		return nil
	}
}

// timer runs f as BFS phase p, BFSTraversal or BFSOther: Stream enters p
// on its clock, PhaseBudget hands f to its hook for p.
type timer func(p phase.ID, f func())

// Stream runs the complete BFS phase: s traversals from pivots chosen by
// the given strategy, each column of hop distances handed to emit in pivot
// order (unreached vertices read as bfs.Unreached, i.e. -1). start is the
// randomly-chosen first vertex (Algorithm 3, line 4). clk enters
// BFSTraversal for each traversal and BFSOther for the work around them;
// emit enters its own phase. The phase runs over sc's pooled buffers (nil
// allocates fresh ones), bit-identically either way, and on one snapshot
// of a live bud, so a GOMAXPROCS change mid-phase cannot re-partition
// running kernels. ctx is checked before every traversal — each pivot
// under KCenters, each round of one BFS per worker under Random — and the
// first error from ctx or emit stops the phase and is returned.
func Stream(ctx context.Context, bud parallel.Budget, g *graph.CSR, s int, start int32, strat Strategy, opt bfs.Options, sc *Scratch, emit Emit, clk *phase.Clock) (PhaseStats, error) {
	clk.Enter(phase.BFSOther)
	return stream(ctx, bud, g, s, start, strat, opt, sc, emit, func(p phase.ID, f func()) {
		clk.Enter(p)
		f()
	})
}

func stream(ctx context.Context, bud parallel.Budget, g *graph.CSR, s int, start int32, strat Strategy, opt bfs.Options, sc *Scratch, emit Emit, t timer) (PhaseStats, error) {
	if !bud.Fixed() {
		bud = parallel.SnapshotBudget()
	}
	if sc == nil {
		sc = &Scratch{}
	}
	if strat == Random {
		return randomPhase(ctx, bud, g, s, start, sc, emit, t)
	}
	return kCentersPhase(ctx, bud, g, s, start, opt, sc, emit, t)
}

func kCentersPhase(ctx context.Context, bud parallel.Budget, g *graph.CSR, s int, start int32, opt bfs.Options, sc *Scratch, emit Emit, t timer) (PhaseStats, error) {
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
	// The timed closures are hoisted out of the pivot loop (and read their
	// loop state through captured variables) so the steady-state loop body
	// allocates nothing.
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
		t(phase.BFSTraversal, traverse)
		st.Traversal = append(st.Traversal, ts)
		st.ScannedEdges += ts.ScannedEdges
		t(phase.BFSOther, other)
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

// randomPhase draws the pivots and runs serial BFSes concurrently, in
// rounds of one pivot per worker, each traversal into its worker's row by
// a one-worker Runner on the worker's own pooled scratch, pinned top-down
// like the bfs.Serial it replaced. With s ≥ workers this keeps every core
// busy without per-level barriers. The rows are widened and emitted in
// pivot order after each round; ctx is checked before every round. The
// phase's ScannedEdges sums what each traversal scanned: the reached
// vertices' adjacencies, all of g's only when g is connected.
func randomPhase(ctx context.Context, bud parallel.Budget, g *graph.CSR, s int, start int32, sc *Scratch, emit Emit, t timer) (PhaseStats, error) {
	n := g.NumV
	st := PhaseStats{Sources: make([]int32, s)}
	sources := st.Sources
	t(phase.BFSOther, func() { drawSources(sc, n, start, sources) })
	rows := sc.rows(n, min(bud.Workers(), s))
	runners := sc.bindRunners(g, len(rows))
	defer sc.bindRunners(nil, len(rows))
	sc.col = grow(sc.col, n)
	sc.stats = grow(sc.stats, len(rows))
	col := sc.col
	// The closures are built once and read lo, hi and i as the loop
	// moves: round worker k traverses pivot lo+k.
	var lo, hi, i int
	one := func(k, _, _ int) { sc.stats[k] = runners[k].Distances(sources[lo+k], rows[k]) }
	round := func() { parallel.ForBlockIndexed(hi-lo, hi-lo, one) }
	widen := func() { linalg.Int32ToFloat64Budget(bud, col, rows[i-lo]) }
	for lo = 0; lo < s; lo = hi {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		hi = min(lo+len(rows), s)
		t(phase.BFSTraversal, round)
		for _, ts := range sc.stats[:hi-lo] {
			st.ScannedEdges += ts.ScannedEdges
		}
		for i = lo; i < hi; i++ {
			t(phase.BFSOther, widen)
			if err := emit(i, col); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// bindRunners binds the first k pooled one-worker top-down runners to g,
// building the ones the pool lacks, and returns them; a nil g unbinds
// them, so the pooled scratch keeps no graph alive between phases.
func (sc *Scratch) bindRunners(g *graph.CSR, k int) []*bfs.Runner {
	for len(sc.runners) < k {
		sc.runners = append(sc.runners, bfs.NewRunner(g, bfs.Options{ForceTopDown: true}, nil, parallel.FixedBudget(1)))
	}
	for _, r := range sc.runners[:k] {
		r.Bind(g)
	}
	return sc.runners[:k]
}
