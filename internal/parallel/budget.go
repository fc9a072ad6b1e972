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
// the budget of code with no run-wide budget to thread (quality
// evaluation, drawing helpers, a graph load whose caller has none). No layout kernel runs on it: BFS,
// Δ-stepping SSSP and every other phase of a layout take the layout's
// budget.
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
// Worker 0's block runs on the calling goroutine. This is the package's
// one scheduler: every walk, loop and per-worker kernel of the
// repository fans out through it, and no other kernel code starts a
// goroutine (TestOneScheduler).
func ForBlockIndexed(workers, n int, body func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			body(w, w*n/workers, (w+1)*n/workers)
		}(w)
	}
	body(0, 0, n/workers)
	wg.Wait()
}

// For executes body(i) for every i in [0, n) using up to Workers()
// goroutines, in contiguous per-worker blocks (static scheduling, as
// the paper's OpenMP pragmas use).
func (b Budget) For(n int, body func(i int)) {
	Blocks(b.BlockWorkers(n), n, body, forRange)
}

func forRange(body func(i int), _, lo, hi int) {
	for i := lo; i < hi; i++ {
		body(i)
	}
}

// ForBlock divides [0, n) into one contiguous block per worker and runs
// body(lo, hi) on each block concurrently. It serves callers whose body
// is a closure (graph building, centering, quality evaluation, SSSP): a
// hot kernel passes its operands by value to Blocks or Tiles instead, so
// its one-worker call builds no closure, and a reduction whose bits must
// not depend on the budget uses the tile grid (SumTiles, MaxTiles).
func (b Budget) ForBlock(n int, body func(lo, hi int)) {
	Blocks(b.BlockWorkers(n), n, body, blockRange)
}

func blockRange(body func(lo, hi int), _, lo, hi int) {
	body(lo, hi)
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
