package parallel

import (
	"runtime"
	"sync"
)

// Budget is an explicit worker-count budget for the fan-out primitives,
// and the only way to reach them: every loop and reduction names the
// budget it runs on. The zero value is "live": it follows
// runtime.GOMAXPROCS at each use, so harnesses can sweep core counts the
// way the paper sweeps 1..28 cores. A fixed budget (FixedBudget,
// SnapshotBudget) pins the worker count for its lifetime, so a layout
// that captures one budget at entry keeps a stable partition even while
// a harness sweeps GOMAXPROCS underneath it. Budgets are small values;
// copy them freely.
type Budget struct{ p int }

// FixedBudget returns a budget pinned to p workers (values below 1 pin to
// one worker, i.e. fully serial execution).
func FixedBudget(p int) Budget {
	if p < 1 {
		p = 1
	}
	return Budget{p: p}
}

// SnapshotBudget captures the current live worker count (GOMAXPROCS) as a
// fixed budget: the once-per-layout snapshot that keeps every kernel of a
// run on the same partition.
func SnapshotBudget() Budget {
	return FixedBudget(runtime.GOMAXPROCS(0))
}

// Live returns the zero budget, which re-reads GOMAXPROCS at every use:
// the budget of code with no run-wide budget to thread (graph building,
// quality evaluation, drawing helpers).
func Live() Budget {
	return Budget{}
}

// Fixed reports whether the budget is pinned (false for the live budget).
func (b Budget) Fixed() bool {
	return b.p > 0
}

// Workers reports the number of workers loops run under this budget fan
// out to: the pinned count for a fixed budget, GOMAXPROCS for a live one.
func (b Budget) Workers() int {
	if b.p > 0 {
		return b.p
	}
	return runtime.GOMAXPROCS(0)
}

// Serial reports whether a length-n loop will run on one worker under
// this budget. Hot kernels branch on it to run a plain loop instead of
// For/ForBlock: a func literal passed to those escapes to the heap, so
// skipping the call skips the closure allocation.
func (b Budget) Serial(n int) bool {
	return b.Workers() <= 1 || n < 2*MinGrain
}

// BlockWorkers reports how many workers ForBlock would actually fan a
// length-n loop across under this budget — Workers() clamped by the
// MinGrain floor. Packed kernels call it once at entry to size their
// per-worker arenas, then fan out across exactly that count via
// ForBlockIndexed, so a live budget's GOMAXPROCS moving between the two
// calls can never send a worker to a slot that was not sized.
func (b Budget) BlockWorkers(n int) int {
	return blockWorkers(n, b.Workers())
}

// ForBlockIndexed divides [0, n) into one contiguous block per worker —
// the same w·n/p partition as Budget.ForBlock — and runs body(w, lo, hi)
// on each block concurrently, with w the owning worker's index. The
// worker count is the caller's, already clamped (BlockWorkers), so the
// fan-out matches whatever per-worker state the caller sized for it.
func ForBlockIndexed(workers, n int, body func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			body(w, w*n/workers, (w+1)*n/workers)
		}(w)
	}
	wg.Wait()
}

// For executes body(i) for every i in [0, n) using up to Workers()
// goroutines, in contiguous per-worker blocks (static scheduling, as
// the paper's OpenMP pragmas use).
func (b Budget) For(n int, body func(i int)) {
	b.ForBlock(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForBlock divides [0, n) into one contiguous block per worker and runs
// body(lo, hi) on each block concurrently. It is the preferred loop for
// kernels that carry per-block state (local accumulators, buffers); a
// reduction whose bits must not depend on the budget uses the tile grid
// (ForTiles, Sum, MaxIndex) instead.
func (b Budget) ForBlock(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := blockWorkers(n, b.Workers())
	if p <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		lo := w * n / p
		hi := (w + 1) * n / p
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ForTiles runs body(t, lo, hi) for every tile t of the fixed [0, n)
// tiling (tiles = ReduceBlocks(n)), fanning the tiles out across
// min(Workers(), tiles) goroutines; each worker owns a contiguous tile
// range so its memory access stays sequential. Callers needing an
// allocation-free serial path must branch on Workers() <= 1 themselves
// before constructing the body closure.
func (b Budget) ForTiles(n, tiles int, body func(t, lo, hi int)) {
	ForTilesIndexed(b.Workers(), n, tiles, func(_, t, lo, hi int) { body(t, lo, hi) })
}

// blockWorkers clamps a static partition's worker count so every worker
// gets at least MinGrain iterations (and short loops run serially).
func blockWorkers(n, p int) int {
	if p <= 1 || n < 2*MinGrain {
		return 1
	}
	if maxB := (n + MinGrain - 1) / MinGrain; p > maxB {
		p = maxB
	}
	return p
}
