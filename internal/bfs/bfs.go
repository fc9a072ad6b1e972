package bfs

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// Unreached marks vertices not reached by a traversal.
const Unreached = int32(-1)

// Default direction-switch parameters from the GAP BFS (Beamer's α and β).
const (
	DefaultAlpha = 15
	DefaultBeta  = 18
)

// Stats reports what a traversal did — the raw material of the paper's
// BFS-phase breakdowns (Fig. 5 middle) and the γ work-reduction factor of
// Table 1.
type Stats struct {
	Levels        int   // eccentricity of the source + 1 iterations
	TopDownSteps  int   // levels run in top-down mode
	BottomUpSteps int   // levels run in bottom-up mode
	Switches      int   // direction changes (a healthy traversal makes at most 2)
	ScannedEdges  int64 // adjacency entries actually examined
}

// Add accumulates o into s — the aggregation the per-layout observability
// rollups (core.Report.BFSTotals, the server's direction counters) run
// over every traversal of a phase.
func (s *Stats) Add(o Stats) {
	s.Levels += o.Levels
	s.TopDownSteps += o.TopDownSteps
	s.BottomUpSteps += o.BottomUpSteps
	s.Switches += o.Switches
	s.ScannedEdges += o.ScannedEdges
}

// Options configures a traversal, single- or multi-source.
type Options struct {
	Alpha int64 // top-down → bottom-up switch threshold (0 = DefaultAlpha)
	Beta  int64 // bottom-up → top-down switch threshold (0 = DefaultBeta)
	// ForceTopDown disables the bottom-up direction entirely, yielding a
	// plain level-synchronous parallel BFS (used for ablation benches).
	ForceTopDown bool
}

// withDefaults normalizes zero values to the GAP-style defaults.
func (o Options) withDefaults() Options {
	if o.Alpha <= 0 {
		o.Alpha = DefaultAlpha
	}
	if o.Beta <= 0 {
		o.Beta = DefaultBeta
	}
	return o
}

// Runner holds the reusable state for repeated traversals over one graph,
// so the s searches of the BFS phase don't reallocate frontiers — the
// paper stresses the O(sn) distance storage is the dominant extra memory.
type Runner struct {
	g       *graph.CSR
	opt     Options
	sc      *Scratch
	bud     parallel.Budget
	workers int
}

// NewRunner creates a Runner for g backed by sc, regrowing it if it is
// too small for g (nil allocates private scratch). The caller may hand the
// same Scratch to successive Runners over different graphs — the job
// engine reuses one per worker — but must not share it between
// concurrently live Runners. The budget is pinned for the Runner's
// lifetime: the per-worker queue arenas and every traversal step use the
// same worker count, so a GOMAXPROCS change mid-run can never
// desynchronize the partition from the scratch (live budgets are
// snapshotted once here for exactly that reason).
func NewRunner(g *graph.CSR, opt Options, sc *Scratch, bud parallel.Budget) *Runner {
	opt = opt.withDefaults()
	if !bud.Fixed() {
		bud = parallel.SnapshotBudget()
	}
	w := bud.Workers()
	if sc == nil {
		sc = NewScratch(g.NumV, w)
	} else {
		sc.ensure(g.NumV, w)
	}
	return &Runner{g: g, opt: opt, sc: sc, bud: bud, workers: w}
}

// Distances runs a BFS from src, writing hop counts into dist (length
// NumV, filled with Unreached for unreachable vertices) and returning
// traversal statistics. dist may be a column of the HDE distance matrix B;
// the write pattern is atomic-free for distances (a CAS claims each vertex
// once, then the distance store is unconditional), matching §3.1.
func (r *Runner) Distances(src int32, dist []int32) Stats {
	g := r.g
	n := g.NumV
	parallel.Blocks(r.bud.BlockWorkers(n), n, dist, resetDist)
	dist[src] = 0

	var st Stats
	level := int32(0)
	// frontier state: either queue (top-down) or bitmap (bottom-up)
	r.sc.queue = append(r.sc.queue[:0], src)
	bottomUp := false
	frontierSize, prevSize := int64(1), int64(0)
	frontierEdges := int64(g.Degree(src))
	unexploredEdges := int64(len(g.Adj)) - frontierEdges

	for frontierSize > 0 {
		st.Levels++
		if !r.opt.ForceTopDown && bottomUp != goBottomUp(bottomUp, frontierSize, prevSize,
			frontierEdges, unexploredEdges, int64(n), r.opt.Alpha, r.opt.Beta) {
			bottomUp = !bottomUp
			st.Switches++
			if bottomUp {
				// Materialize the frontier bitmap from the queue.
				r.sc.front.Reset()
				q := r.sc.queue
				if r.workers == 1 {
					for _, v := range q {
						r.sc.front.SetSerial(v)
					}
				} else {
					r.bud.For(len(q), func(i int) { r.sc.front.Set(q[i]) })
				}
			} else {
				r.rebuildQueue()
			}
		}
		var nf, ne, scanned int64
		if bottomUp {
			nf, ne, scanned = r.bottomUpStep(level, dist)
			st.BottomUpSteps++
		} else {
			nf, ne, scanned = r.topDownStep(level, dist)
			st.TopDownSteps++
		}
		st.ScannedEdges += scanned
		unexploredEdges -= ne
		prevSize = frontierSize
		frontierSize, frontierEdges = nf, ne
		level++
	}
	return st
}

// resetDist marks dist[lo:hi] unreached.
func resetDist(dist []int32, _, lo, hi int) {
	d := dist[lo:hi]
	for i := range d {
		d[i] = Unreached
	}
}

// goBottomUp is the whole direction rule: given the direction the last
// level ran in, it reports whether the next one runs bottom-up. nf and mf
// are the frontier's vertex count and total degree, prevNF the previous
// frontier's vertex count, mu the total degree of the still-unvisited
// vertices. Entering and leaving are the two edges of Beamer, Asanović &
// Patterson's state machine (SC'12, Fig. 5): top-down → bottom-up when the
// frontier's edges outweigh the unexplored ones by α and the frontier is
// growing, back when it has fallen below n/β vertices and is shrinking.
// The third entry term prices what a bottom-up step pays whatever mu is —
// a sweep of all n distance slots: a top-down step that scans no more
// than n/β adjacency entries is cheaper than that sweep, so on
// high-diameter graphs, whose frontier never grows that large, the
// traversal never leaves top-down.
func goBottomUp(bottomUp bool, nf, prevNF, mf, mu, n, alpha, beta int64) bool {
	if bottomUp {
		return !(nf < n/beta && nf < prevNF)
	}
	return mf > mu/alpha && nf > prevNF && mf > n/beta
}

// topDownStep expands the queue frontier, claiming unvisited neighbors
// with a CAS on their distance slot. Returns the next frontier size, its
// total degree, and the number of adjacency entries scanned.
func (r *Runner) topDownStep(level int32, dist []int32) (nf, ne, scanned int64) {
	g := r.g
	q := r.sc.queue
	w := r.workers
	if r.bud.BlockWorkers(len(q)) == 1 {
		// One worker, or a frontier too short to be worth a goroutine per
		// worker (a road graph runs thousands of ~80-vertex levels): expand
		// inline — no spawn, no atomics, no per-level allocation — and with
		// no branch on the claim, which a sparse frontier mispredicts: m is
		// all ones exactly when dist[v] is Unreached (−1), every neighbor is
		// written to the tail slot of the n-slot queue, and the tail moves
		// past the claimed ones only.
		next := r.sc.nextQ[0][:g.NumV]
		tail := 0
		var localScan int64
		for _, u := range q {
			adj := g.Adj[g.Offsets[u]:g.Offsets[u+1]]
			localScan += int64(len(adj))
			for _, v := range adj {
				d := dist[v]
				m := d >> 31
				dist[v] = d ^ ((d ^ (level + 1)) & m)
				next[tail] = v
				tail += int(m & 1)
			}
		}
		next = next[:tail]
		var localNE int64
		for _, v := range next {
			localNE += g.Offsets[v+1] - g.Offsets[v]
		}
		r.sc.queue, r.sc.nextQ[0] = next, q
		return int64(tail), localNE, localScan
	}
	var totNF, totNE, totScan atomic.Int64
	parallel.ForBlockIndexed(w, len(q), func(wk, lo, hi int) {
		local := r.sc.nextQ[wk][:0]
		var localNE, localScan int64
		for _, u := range q[lo:hi] {
			adj := g.Adj[g.Offsets[u]:g.Offsets[u+1]]
			localScan += int64(len(adj))
			for _, v := range adj {
				if atomic.LoadInt32(&dist[v]) == Unreached &&
					atomic.CompareAndSwapInt32(&dist[v], Unreached, level+1) {
					local = append(local, v)
					localNE += g.Offsets[v+1] - g.Offsets[v]
				}
			}
		}
		r.sc.nextQ[wk] = local
		totNF.Add(int64(len(local)))
		totNE.Add(localNE)
		totScan.Add(localScan)
	})
	// Concatenate per-worker buffers into the next queue.
	r.sc.queue = r.sc.queue[:0]
	for wk := 0; wk < w; wk++ {
		r.sc.queue = append(r.sc.queue, r.sc.nextQ[wk]...)
	}
	return totNF.Load(), totNE.Load(), totScan.Load()
}

// bottomUpStep has every unvisited vertex scan its own adjacency for a
// parent on the current level (held in dist), stopping at the first hit —
// the step that slashes edge traffic on low-diameter skewed graphs.
func (r *Runner) bottomUpStep(level int32, dist []int32) (nf, ne, scanned int64) {
	r.sc.next.Reset()
	bu := &r.sc.bu
	*bu = [3]atomic.Int64{}
	parallel.Blocks(r.bud.BlockWorkers(r.g.NumV), r.g.NumV, bottomUpArgs{r, dist, level}, bottomUpArgs.block)
	r.sc.front.Swap(r.sc.next)
	return bu[0].Load(), bu[1].Load(), bu[2].Load()
}

// bottomUpArgs is the operands of one bottom-up step, its block body a
// method taking them by value, so a one-worker step allocates nothing.
type bottomUpArgs struct {
	r     *Runner
	dist  []int32
	level int32
}

// block runs the step over [lo, hi) and adds its counts to the scratch's.
// Membership in the frontier bitmap (fully built before the step) is the
// parent test; consulting dist for it would race with other workers
// claiming their own vertices.
func (a bottomUpArgs) block(_, lo, hi int) {
	nf, ne, scanned := a.r.bottomUpRange(a.level, a.dist, lo, hi)
	bu := &a.r.sc.bu
	bu[0].Add(nf)
	bu[1].Add(ne)
	bu[2].Add(scanned)
}

// bottomUpRange is one contiguous chunk of the bottom-up step: every
// unvisited vertex in [lo, hi) scans its adjacency for a parent on the
// frontier bitmap.
func (r *Runner) bottomUpRange(level int32, dist []int32, lo, hi int) (nf, ne, scanned int64) {
	g := r.g
	serial := r.workers == 1 // sole writer of next: no CAS needed
	for v := lo; v < hi; v++ {
		if dist[v] != Unreached {
			continue
		}
		adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
		for k, u := range adj {
			if r.sc.front.Get(u) {
				dist[v] = level + 1
				if serial {
					r.sc.next.SetSerial(int32(v))
				} else {
					r.sc.next.Set(int32(v))
				}
				nf++
				ne += g.Offsets[v+1] - g.Offsets[v]
				scanned += int64(k + 1)
				break
			}
			if k == len(adj)-1 {
				scanned += int64(len(adj))
			}
		}
	}
	return nf, ne, scanned
}

// rebuildQueue converts the bitmap frontier back into queue form, in
// ascending vertex order, by peeling the set bits of each word:
// O(n/64 + frontier), not a probe per vertex. The rule only leaves
// bottom-up below n/β vertices, so the walk is serial under every budget.
func (r *Runner) rebuildQueue() {
	q := r.sc.queue[:0]
	for i, x := range r.sc.front.words[:(r.g.NumV+63)/64] {
		for ; x != 0; x &= x - 1 {
			q = append(q, int32(i<<6+bits.TrailingZeros64(x)))
		}
	}
	r.sc.queue = q
}

// Serial runs a textbook sequential BFS from src into dist, returning the
// number of levels. It is both the correctness oracle for the parallel
// traversal and the traversal used by the prior-work baseline, which "does
// not use parallel BFS" (§4.2).
func Serial(g *graph.CSR, src int32, dist []int32) int {
	for i := range dist {
		dist[i] = Unreached
	}
	dist[src] = 0
	queue := make([]int32, 1, 1024)
	queue[0] = src
	levels := 0
	for len(queue) > 0 {
		levels++
		var next []int32
		for _, u := range queue {
			d := dist[u]
			for _, v := range g.Neighbors(u) {
				if dist[v] == Unreached {
					dist[v] = d + 1
					next = append(next, v)
				}
			}
		}
		queue = next
	}
	return levels
}
