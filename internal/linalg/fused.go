package linalg

import (
	"repro/internal/parallel"
)

// Fused elementwise kernels. The BFS-phase bookkeeping and the DOrtho
// column hand-off would otherwise be single-purpose Level-1 passes (widen,
// min-update, argmax, copy, scale), each streaming the same n-length
// vectors again; at layout scale those phases are pure memory traffic, so
// the fused forms here do the combined job in one pass. The third fused
// kernel, the DOrtho keep step, writes into the packed kept-column store
// (PackedCols.AppendScaledDDotBudget).

// WidenMinArgmaxBudget fuses the per-pivot bookkeeping of the k-centers
// BFS loop: dst[i] = float64(src[i]), dmin[i] = min(dmin[i], src[i]), and
// the return value is the index of the maximum of the updated dmin (ties
// toward the smallest index, matching parallel.ArgmaxInt32). One pass
// over memory instead of the three the unfused widen → min-update →
// argmax sequence performs, with identical results. idxs/vals are the
// per-tile argmax arenas (capacity ≥ ReduceBlocks(n) each, allocated when
// short); a pooled caller passes both so the steady-state call allocates
// nothing. The elementwise writes are partition-independent, and the
// cross-tile first-maximum combine matches the serial first-maximum scan,
// so every budget returns the same index.
func WidenMinArgmaxBudget(bud parallel.Budget, dst []float64, dmin, src []int32, idxs []int, vals []int32) int {
	checkLen(len(dst), len(src))
	checkLen(len(dmin), len(src))
	n := len(src)
	tiles := ReduceBlocks(n)
	if tiles == 1 || bud.Workers() <= 1 {
		best, _ := widenMinArgmaxRange(dst, dmin, src, 0, n)
		return best
	}
	var ib []int
	if cap(idxs) >= tiles {
		ib = idxs[:tiles]
	} else {
		ib = make([]int, tiles)
	}
	var vb []int32
	if cap(vals) >= tiles {
		vb = vals[:tiles]
	} else {
		vb = make([]int32, tiles)
	}
	forTiles(bud, n, tiles, func(t, lo, hi int) {
		ib[t], vb[t] = widenMinArgmaxRange(dst, dmin, src, lo, hi)
	})
	best, bv := ib[0], vb[0]
	for t := 1; t < tiles; t++ {
		if vb[t] > bv {
			best, bv = ib[t], vb[t]
		}
	}
	return best
}

// widenMinArgmaxRange is WidenMinArgmaxBudget over rows [lo, hi): the
// first maximum of the updated dmin in the range, and its value.
func widenMinArgmaxRange(dst []float64, dmin, src []int32, lo, hi int) (best int, bv int32) {
	best, bv = lo, int32(-1<<31)
	for i := lo; i < hi; i++ {
		v := src[i]
		dst[i] = float64(v)
		if v < dmin[i] {
			dmin[i] = v
		}
		if dmin[i] > bv {
			best, bv = i, dmin[i]
		}
	}
	return best, bv
}

// ScaledCopyBudget computes dst[i] = a·src[i] in one pass — the fused
// form of a copy followed by a scale. Each element is written by one
// worker, so results are partition-independent.
func ScaledCopyBudget(bud parallel.Budget, dst, src []float64, a float64) {
	checkLen(len(dst), len(src))
	if bud.Serial(len(src)) {
		for i, v := range src {
			dst[i] = a * v
		}
		return
	}
	bud.ForBlock(len(src), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = a * src[i]
		}
	})
}
