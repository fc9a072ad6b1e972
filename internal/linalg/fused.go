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
// toward the smallest index, matching parallel.MaxIndex). One pass over
// memory instead of the three the unfused widen → min-update → argmax
// sequence performs, with identical results. idxs/vals are the per-tile
// argmax arenas (capacity ≥ parallel.ReduceBlocks(n) each, allocated
// when short); a pooled caller passes both so the steady-state call
// allocates nothing. The elementwise writes are partition-independent, and the
// cross-tile first-maximum combine matches the serial first-maximum scan,
// so every budget returns the same index.
func WidenMinArgmaxBudget(bud parallel.Budget, dst []float64, dmin, src []int32, idxs []int, vals []int32) int {
	checkLen(len(dst), len(src))
	checkLen(len(dmin), len(src))
	return parallel.MaxTiles(bud.Workers(), len(src), widenArgs{dst, dmin, src}, idxs, vals, widenArgs.tile)
}

// widenArgs is the operands of one WidenMinArgmaxBudget call.
type widenArgs struct {
	dst       []float64
	dmin, src []int32
}

// tile is WidenMinArgmaxBudget over rows [lo, hi): the first maximum of
// the updated dmin in the range, and its value.
func (a widenArgs) tile(_, lo, hi int) (best int, bv int32) {
	src := a.src[lo:hi]
	dst, dmin := a.dst[lo:hi][:len(src)], a.dmin[lo:hi][:len(src)]
	best, bv = lo, int32(-1<<31)
	for i, v := range src {
		dst[i] = float64(v)
		if v < dmin[i] {
			dmin[i] = v
		}
		if dmin[i] > bv {
			best, bv = lo+i, dmin[i]
		}
	}
	return best, bv
}

// ScaledCopyBudget computes dst[i] = a·src[i] in one pass — the fused
// form of a copy followed by a scale. Each element is written by one
// worker, so results are partition-independent.
func ScaledCopyBudget(bud parallel.Budget, dst, src []float64, a float64) {
	checkLen(len(dst), len(src))
	parallel.Blocks(bud.BlockWorkers(len(src)), len(src), vecArgs{x: src, y: dst, a: a}, vecArgs.scaledCopy)
}

func (v vecArgs) scaledCopy(_, lo, hi int) {
	src, dst, a := v.x[lo:hi], v.y[lo:hi], v.a
	for i := range src {
		dst[i] = a * src[i]
	}
}
