// Package parallel provides the shared-memory fan-out primitives used by
// every compute kernel in this repository: static-schedule parallel loops
// over index ranges and parallel reductions, all run under an explicit
// Budget (see budget.go), so every fan-out names the worker count it runs
// on. Each kernel writes its tile or block body once, as a function of
// its operands held by value (Tiles, Blocks, SumTiles, MaxTiles); one
// worker runs that same body inline on the calling goroutine, with no
// goroutine, closure or synchronization, so the 1-worker point of a core
// sweep is the parallel loop on one thread, not a second copy of it.
//
// Every reduction runs over one fixed tiling of the index range (TileRows
// indices per tile, see ReduceBlocks) with the per-tile partials combined
// serially in ascending tile order. The tile grid depends only on the
// problem size — never on the worker count — so a reduction's result is
// bitwise identical across any worker budget, and arenas sized by
// ReduceBlocks can never be desynchronized by a GOMAXPROCS change
// mid-run. A Budget only controls how many goroutines the tiles fan out
// across.
//
// There is one scheduler: ForBlockIndexed is the only code in this
// package, and in every package that imports it, that starts a
// goroutine. The walks, Budget.ForBlock and the kernels that keep
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

// Tiles runs body(st, w, t, lo, hi) for every tile t of the fixed
// [0, n) tiling into tiles tiles, with w the owning worker's index. The
// worker count p is the caller's, snapshotted before it sized any
// worker-indexed arena, and is clamped to the tile count; worker w owns
// the contiguous tile range [w·tiles/p, (w+1)·tiles/p). On one worker the
// tiles run inline in tile order. The kernel's operands travel in st, by
// value, and body is a plain function or method expression, so a
// one-worker call builds no closure and allocates nothing: the one
// closure lives in fanTiles, which only a fan-out reaches.
func Tiles[S any](p, n, tiles int, st S, body func(st S, w, t, lo, hi int)) {
	if p = min(p, tiles); p > 1 {
		fanTiles(p, n, tiles, st, body)
		return
	}
	for t := 0; t < tiles; t++ {
		body(st, 0, t, t*n/tiles, (t+1)*n/tiles)
	}
}

// fanTiles is Tiles' fan-out. It is a function of its own because the
// closure handed to ForBlockIndexed escapes and captures st, and Go
// captures a variable wider than 128 bytes (or one that is reassigned) by
// reference: written inside Tiles, the closure would move such an st to
// the heap at Tiles' entry, charging every one-worker call.
func fanTiles[S any](p, n, tiles int, st S, body func(st S, w, t, lo, hi int)) {
	ForBlockIndexed(p, tiles, func(w, t0, t1 int) {
		for t := t0; t < t1; t++ {
			body(st, w, t, t*n/tiles, (t+1)*n/tiles)
		}
	})
}

// Blocks runs body(st, w, lo, hi) on the w·n/p blocks of [0, n), the
// partition of ForBlockIndexed, with p the caller's worker count (already
// clamped, see Budget.BlockWorkers). It is Tiles' counterpart for kernels
// whose elements are each written by one worker, so the partition does
// not touch their bits: one worker runs the whole range inline, and only
// fanBlocks builds a closure.
func Blocks[S any](p, n int, st S, body func(st S, w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if p > 1 {
		fanBlocks(p, n, st, body)
		return
	}
	body(st, 0, 0, n)
}

// fanBlocks is Blocks' fan-out, kept out of Blocks for fanTiles' reason.
func fanBlocks[S any](p, n int, st S, body func(st S, w, lo, hi int)) {
	ForBlockIndexed(p, n, func(w, lo, hi int) { body(st, w, lo, hi) })
}

// SumTiles returns the sum of body(st, t, lo, hi) over the tiles of the
// fixed [0, n) grid, added in tile order, on p workers (clamped to the
// tile count), so the result is bitwise identical for every p. One worker
// adds each tile's sum as it goes; a fan-out stores them in partials
// (capacity ≥ ReduceBlocks(n), grown when short), which nothing else
// touches, and adds them afterwards.
func SumTiles[T int64 | float64, S any](p, n int, st S, partials []T, body func(st S, t, lo, hi int) T) T {
	tiles := ReduceBlocks(n)
	if p = min(p, tiles); p > 1 {
		return fanSum(p, n, tiles, st, partials, body)
	}
	var s T
	for t := 0; t < tiles; t++ {
		s += body(st, t, t*n/tiles, (t+1)*n/tiles)
	}
	return s
}

func fanSum[T int64 | float64, S any](p, n, tiles int, st S, partials []T, body func(st S, t, lo, hi int) T) T {
	buf := grow(partials, tiles)
	fanTiles(p, n, tiles, st, func(st S, _, t, lo, hi int) { buf[t] = body(st, t, lo, hi) })
	var s T
	for _, v := range buf {
		s += v
	}
	return s
}

// FoldTiles is SumTiles for len(acc) results at once: body writes tile
// t's results into part (len(acc) entries, zero on entry) and fold(acc,
// part) merges each tile's vector into acc — adding, or keeping a minimum
// or maximum, entry by entry — in tile order, on p workers (clamped to the
// tile count), so the result is bitwise identical for every p. One worker
// folds each tile as it goes through scratch (capacity ≥ len(acc), grown
// when short), so it allocates nothing that grows with n; a fan-out keeps
// every tile's vector in scratch (grown to ReduceBlocks(n)·len(acc)) and
// folds them afterwards.
func FoldTiles[S any](p, n int, st S, acc, scratch []float64, body func(st S, t, lo, hi int, part []float64), fold func(acc, part []float64)) {
	tiles, width := ReduceBlocks(n), len(acc)
	if p = min(p, tiles); p > 1 {
		fanFold(p, n, tiles, st, acc, scratch, body, fold)
		return
	}
	part := grow(scratch, width)
	for t := 0; t < tiles; t++ {
		clear(part)
		body(st, t, t*n/tiles, (t+1)*n/tiles, part)
		fold(acc, part)
	}
}

func fanFold[S any](p, n, tiles int, st S, acc, scratch []float64, body func(st S, t, lo, hi int, part []float64), fold func(acc, part []float64)) {
	width := len(acc)
	buf := grow(scratch, tiles*width)
	clear(buf)
	fanTiles(p, n, tiles, st, func(st S, _, t, lo, hi int) { body(st, t, lo, hi, buf[t*width:(t+1)*width]) })
	for t := 0; t < tiles; t++ {
		fold(acc, buf[t*width:(t+1)*width])
	}
}

// MaxTiles returns the index of the maximum over the tiles of the fixed
// [0, n) grid, body(st, t, lo, hi) reporting tile t's maximizing index and
// its value. The tile maxima are combined in tile order, the first of tied
// (or NaN-hidden) maxima winning, on p workers (clamped to the tile
// count), so every p returns the same index. idxs and vals (capacity ≥
// ReduceBlocks(n) each, grown when short) hold the tile maxima of a
// fan-out and of nothing else.
func MaxTiles[T int32 | float64, S any](p, n int, st S, idxs []int, vals []T, body func(st S, t, lo, hi int) (int, T)) int {
	tiles := ReduceBlocks(n)
	if p = min(p, tiles); p > 1 {
		return fanMax(p, n, tiles, st, idxs, vals, body)
	}
	best, bv := body(st, 0, 0, n/tiles)
	for t := 1; t < tiles; t++ {
		if i, v := body(st, t, t*n/tiles, (t+1)*n/tiles); v > bv {
			best, bv = i, v
		}
	}
	return best
}

func fanMax[T int32 | float64, S any](p, n, tiles int, st S, idxs []int, vals []T, body func(st S, t, lo, hi int) (int, T)) int {
	ib, vb := grow(idxs, tiles), grow(vals, tiles)
	fanTiles(p, n, tiles, st, func(st S, _, t, lo, hi int) { ib[t], vb[t] = body(st, t, lo, hi) })
	best := 0
	for t := 1; t < tiles; t++ {
		if vb[t] > vb[best] {
			best = t
		}
	}
	return ib[best]
}

// grow returns buf[:n], allocated afresh when its capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Sum returns the sum of f(i) over [0, n): each tile of the fixed grid is
// summed in index order and the tile sums are combined in tile order, so
// the result is bitwise identical for every budget.
func Sum[T int64 | float64](bud Budget, n int, f func(i int) T) T {
	return SumTiles(bud.Workers(), n, f, nil, sumTile[T])
}

// sumTile is one tile of Sum.
func sumTile[T int64 | float64](f func(i int) T, _, lo, hi int) T {
	var s T
	for i := lo; i < hi; i++ {
		s += f(i)
	}
	return s
}

// MaxIndex returns the index in [0, n) maximizing key(i), ties broken
// toward the smallest index ("ties are arbitrarily broken" in the paper;
// a deterministic rule keeps runs reproducible). Each tile's maximum is
// found in index order and the tile maxima are combined in tile order on
// every budget. key is called exactly once per index, by the goroutine
// that owns its tile, so it may update per-index state as it reads it. n
// must be positive.
func MaxIndex[T int32 | float64](bud Budget, n int, key func(i int) T) int {
	return MaxTiles(bud.Workers(), n, key, nil, nil, tileMax[T])
}

// tileMax is one tile of MaxIndex: the first index in [lo, hi) holding
// the tile's maximum key, and that key.
func tileMax[T int32 | float64](key func(i int) T, _, lo, hi int) (int, T) {
	best, bv := lo, key(lo)
	for i := lo + 1; i < hi; i++ {
		if v := key(i); v > bv {
			best, bv = i, v
		}
	}
	return best, bv
}
