// Package parallel provides the shared-memory fan-out primitives used by
// every compute kernel in this repository: static-schedule parallel loops
// over index ranges and parallel reductions, all run under an explicit
// Budget (see budget.go), so every fan-out names the worker count it runs
// on. All primitives degrade to straight serial loops when only one worker
// is available, so single-threaded baselines pay no synchronization cost.
//
// Every reduction runs over one fixed tiling of the index range (TileRows
// indices per tile, see ReduceBlocks) with the per-tile partials combined
// serially in ascending tile order. The tile grid depends only on the
// problem size — never on the worker count — so a reduction's result is
// bitwise identical across any worker budget, including the serial path,
// and arenas sized by ReduceBlocks can never be desynchronized by a
// GOMAXPROCS change mid-run. A Budget only controls how many goroutines
// the tiles fan out across.
//
// There is one scheduler: ForBlockIndexed is the only code in this
// package, and in every package that imports it, that starts a
// goroutine. Budget.ForBlock, the tile walks and the kernels that keep
// per-worker buffers (the top-down BFS step, Random-pivot rounds,
// Δ-stepping) all fan out through it, so a new partition or a pool of
// persistent workers is built once, there. TestOneScheduler holds the
// rule.
package parallel

// MinGrain is the smallest per-worker chunk of loop iterations worth the
// cost of spawning a goroutine. Loops shorter than MinGrain run serially.
const MinGrain = 1024

// TileRows is the row height of one reduction tile: 4096 float64 rows are
// 32 KiB — half an L1 data cache per streamed operand — which is fine
// enough to load-balance across any realistic core count and coarse
// enough that the per-tile bookkeeping is negligible next to the tile's
// arithmetic.
const TileRows = 4096

// ReduceBlocks returns the number of tiles a length-n reduction is cut
// into: ⌈n/TileRows⌉ (at least 1). The tile count depends only on n, so a
// caller sizing a reusable partials arena with ReduceBlocks(n) entries is
// immune to concurrent GOMAXPROCS changes — the arena can never silently
// fall short mid-run — and the serial in-tile-order combine makes every
// reduction bitwise identical across worker budgets.
func ReduceBlocks(n int) int {
	if n <= TileRows {
		return 1
	}
	return (n + TileRows - 1) / TileRows
}

// ForTilesIndexed runs body(w, t, lo, hi) for every tile t of the fixed
// [0, n) tiling, with w the owning worker's index and the worker count
// fixed by the caller. The count is snapshotted once — before any
// worker-indexed arena is sized — so a live budget whose GOMAXPROCS moves
// mid-call can never fan out across more workers than the arena has
// slots. Worker w owns the contiguous tile range [w·tiles/p, (w+1)·tiles/p).
func ForTilesIndexed(p, n, tiles int, body func(w, t, lo, hi int)) {
	if p = min(p, tiles); p <= 1 {
		for t := 0; t < tiles; t++ {
			body(0, t, t*n/tiles, (t+1)*n/tiles)
		}
		return
	}
	ForBlockIndexed(p, tiles, func(w, t0, t1 int) {
		for t := t0; t < t1; t++ {
			body(w, t, t*n/tiles, (t+1)*n/tiles)
		}
	})
}

// Sum returns the sum of f(i) over [0, n): each tile of the fixed grid is
// summed in index order and the tile sums are combined in tile order, so
// the result is bitwise identical for every budget. The serial path runs
// the same additions as a plain loop, allocating nothing.
func Sum[T int64 | float64](bud Budget, n int, f func(i int) T) T {
	tiles := ReduceBlocks(n)
	var s T
	if bud.Workers() <= 1 || tiles == 1 {
		for t := 0; t < tiles; t++ {
			var ts T
			for i, hi := t*n/tiles, (t+1)*n/tiles; i < hi; i++ {
				ts += f(i)
			}
			s += ts
		}
		return s
	}
	partials := make([]T, tiles)
	bud.ForTiles(n, tiles, func(t, lo, hi int) {
		var ts T
		for i := lo; i < hi; i++ {
			ts += f(i)
		}
		partials[t] = ts
	})
	for _, p := range partials {
		s += p
	}
	return s
}

// MaxIndex returns the index in [0, n) maximizing key(i), ties broken
// toward the smallest index ("ties are arbitrarily broken" in the paper;
// a deterministic rule keeps runs reproducible). Each tile's maximum is
// found in index order and the tile maxima are combined in tile order, on
// every path. key is called exactly once per index, by the goroutine that
// owns its tile, so it may update per-index state as it reads it. n must
// be positive.
func MaxIndex[T int32 | float64](bud Budget, n int, key func(i int) T) int {
	tiles := ReduceBlocks(n)
	if bud.Workers() <= 1 || tiles == 1 {
		var best int
		var bv T
		for t := 0; t < tiles; t++ {
			ti, tv := tileMax(key, t*n/tiles, (t+1)*n/tiles)
			if t == 0 || tv > bv {
				best, bv = ti, tv
			}
		}
		return best
	}
	idx, vals := make([]int, tiles), make([]T, tiles)
	bud.ForTiles(n, tiles, func(t, lo, hi int) {
		idx[t], vals[t] = tileMax(key, lo, hi)
	})
	best := 0
	for t := 1; t < tiles; t++ {
		if vals[t] > vals[best] {
			best = t
		}
	}
	return idx[best]
}

// tileMax is one tile of MaxIndex: the first index in [lo, hi) holding
// the tile's maximum key, and that key.
func tileMax[T int32 | float64](key func(i int) T, lo, hi int) (int, T) {
	best, bv := lo, key(lo)
	for i := lo + 1; i < hi; i++ {
		if v := key(i); v > bv {
			best, bv = i, v
		}
	}
	return best, bv
}
