package linalg

import (
	"slices"
	"time"

	"repro/internal/parallel"
)

// Cache-resident packed kernels. Register tiling (blocked.go) cuts
// redundant loads, but streaming the operands out of the column-major
// matrices in place still loses: for an n×s matrix the columns sit n·8
// bytes apart, and at the power-of-two sizes the layouts run at (n =
// 2^16…2^20) every column of a 4×2 tile pass maps to the same cache sets,
// so the per-tile working set that should be served from L1/L2 is evicted
// by its own conflict misses and each B-column pair re-reads the A tile
// from DRAM. The kernels here close that gap by packing: each worker
// copies the chunk of rows it is about to consume into its own contiguous
// arena slot once, then runs the 4×2 micro-kernels out of the packed
// copy, which stays cache-resident for every subsequent pass over the
// chunk. Packing is a copy and every accumulator chain still advances one
// product at a time in ascending row order, so the results equal a
// tile-ordered triple loop bit for bit under every worker budget — the
// property the packed-equivalence fuzz and budget-invariance suites pin
// down.

// PackRows is the row height of one packed chunk: 512 rows are 4 KiB per
// packed column, so a chunk of a 48-column A panel plus a 48-column B
// panel is ~384 KiB — comfortably L2-resident on every deployment target
// while tall enough that the pack copy is amortized over the s·t/8 kernel
// passes that consume it. Chunk boundaries never change results: the
// accumulator chains are carried through the output panel between chunks.
const PackRows = 512

// PackArena holds the per-worker packed-chunk buffers of the packed
// kernels. Each worker of a fan-out owns one slot and packs the rows it
// is about to consume into it, so slots are written and read by exactly
// one goroutine per call. A zero PackArena is ready to use; Ensure grows
// it on demand and never sheds capacity, so a pooled workspace that
// carries one arena across runs allocates only when the worker count or
// chunk footprint actually grows. Slot sizing is the caller's worker
// count snapshotted at kernel entry — a live budget's GOMAXPROCS moving
// mid-call cannot outrun the arena (the kernels fan out across exactly
// the snapshotted count).
type PackArena struct {
	buf []float64
	per int
	// busy holds TripleProdBudget's per-worker L·S and SᵀP times.
	busy []time.Duration
	// gathers holds the last L·S pass's per-worker gather counts (see
	// Gathers).
	gathers []int64
}

// track sizes and clears the per-worker busy times and gather counts of
// a call fanned out across workers.
func (pa *PackArena) track(workers int) {
	pa.busy = slices.Grow(pa.busy[:0], 2*workers)[:2*workers]
	clear(pa.busy)
	pa.gathers = slices.Grow(pa.gathers[:0], workers)[:workers]
	clear(pa.gathers)
}

// Gathers reports how many neighbour rows the last L·S pass through the
// arena (LapMulDenseTiledPackedBudget or TripleProdBudget) loaded: one per
// adjacency entry per column chunk that fusedRows walks — ⌈s/28⌉ chunks
// of the SSE2 walk on amd64 for an unweighted graph (one for s ≤ 28,
// three at s = 64), else the Go walk's 8-, 4- and 1-column chunks. These are the kernel's
// random-access loads; s SpMV passes make one per adjacency entry per
// column. It is the same under every worker budget.
func (pa *PackArena) Gathers() int64 {
	var sum int64
	for _, g := range pa.gathers {
		sum += g
	}
	return sum
}

// Ensure shapes the arena to workers slots of per floats each, growing
// the backing storage only when the total footprint exceeds its capacity.
func (pa *PackArena) Ensure(workers, per int) {
	need := max(workers, 1) * per
	if cap(pa.buf) < need {
		pa.buf = make([]float64, need)
	}
	pa.buf = pa.buf[:cap(pa.buf)]
	pa.per = per
}

// slot returns worker w's packed-chunk buffer (after Ensure).
func (pa *PackArena) slot(w int) []float64 {
	return pa.buf[w*pa.per : (w+1)*pa.per]
}

// AtBPackedBudget computes the small dense product C = AᵀB, where A and B
// are n×s and n×t column-major matrices with large n and small s, t. This
// is the dgemm step of the TripleProd phase, Z = Sᵀ(LS): the paper notes
// its arithmetic intensity is s and its depth is independent of s
// (Table 1). c receives the product (allocated when nil; contents are
// overwritten).
//
// The row dimension is cut into the fixed parallel.TileRows tiling; each
// tile is reduced into its own s×t panel of partials (capacity ≥
// parallel.ReduceBlocks(n)·s·t floats, grown when short) and the panels are
// combined serially in tile order. Within a tile each worker packs the
// PackRows-high chunk of A and B columns it is about to consume into its
// arena slot and runs the 4×2 micro-kernels out of the packed copy, so the
// chunk is read from DRAM once and served from cache for all s·t/8 kernel
// passes. The accumulator chains are carried through the output panel
// between chunks, and the tile grid depends only on n, so the result is
// bitwise identical for every worker budget, one worker included.
// arena may be nil (private storage) — a workspace-backed caller passes the
// pooled arena and partials and the steady state allocates nothing.
func AtBPackedBudget(bud parallel.Budget, a, b, c *Dense, partials []float64, arena *PackArena) *Dense {
	n, s, t, c := atbCheck(a, b, c)
	tiles := parallel.ReduceBlocks(n)
	workers := min(bud.Workers(), tiles)
	if arena == nil {
		arena = &PackArena{}
	}
	arena.Ensure(workers, PackRows*(s+t))
	panels := tilePanels(c.Data, partials, tiles, s*t)
	parallel.Tiles(workers, n, tiles, atbArgs{a, b, panels, arena}, atbArgs.tile)
	combinePanels(c.Data, panels, tiles, s*t)
	return c
}

// atbArgs is the operands of one AtBPackedBudget call.
type atbArgs struct {
	a, b   *Dense
	panels []float64
	arena  *PackArena
}

// tile reduces tile t's rows [lo, hi) into its panel through worker w's
// arena slot.
func (x atbArgs) tile(w, t, lo, hi int) {
	size := x.a.Cols * x.b.Cols
	atbPackedPanel(x.a, x.b, x.panels[t*size:(t+1)*size], lo, hi, x.arena.slot(w))
}

// atbPackedPanel writes the s×t column-major panel out[j*s+i] =
// Σ_{r∈[lo,hi)} a_i[r]·b_j[r] out of packed storage: rows [lo, hi) are
// consumed in PackRows-high chunks, each chunk's A and B columns copied
// contiguously into the worker's arena slot before atbSweep runs over it.
func atbPackedPanel(a, b *Dense, out []float64, lo, hi int, pack []float64) {
	s, t := a.Cols, b.Cols
	clear(out[:s*t])
	for r0 := lo; r0 < hi; r0 += PackRows {
		r1 := min(r0+PackRows, hi)
		w := r1 - r0
		packA, packB := strided{pack, w, w}, strided{pack[s*w:], w, w}
		for i := 0; i < s; i++ {
			copy(packA.col(i), a.Col(i)[r0:r1])
		}
		for j := 0; j < t; j++ {
			copy(packB.col(j), b.Col(j)[r0:r1])
		}
		atbSweep(packA, packB, s, t, out)
	}
}

// strided is a view of equal-height columns at a fixed stride in one
// buffer: column j is buf[j·stride:][:h]. An arena chunk, rows of a
// column-major matrix and a PackedCols tile are all read through it.
type strided struct {
	buf       []float64
	stride, h int
}

func (v strided) col(j int) []float64 { return v.buf[j*v.stride:][:v.h] }

// atbSweep extends the s×t column-major panel out[j*s+i] by ⟨a_i, b_j⟩
// over the rows of the column views a and b with the 4×2 micro-kernels
// and their tails. The panel doubles as the accumulator store between
// calls — every element is loaded, extended by the rows' products in
// ascending row order, and stored back — so a caller feeding a row range
// through in chunks performs exactly the additions of one full-range pass.
func atbSweep(a, b strided, s, t int, out []float64) {
	j := 0
	for ; j+2 <= t; j += 2 {
		b0, b1 := b.col(j), b.col(j+1)
		o0, o1 := out[j*s:(j+1)*s], out[(j+1)*s:(j+2)*s]
		i := 0
		for ; i+4 <= s; i += 4 {
			o0[i], o0[i+1], o0[i+2], o0[i+3], o1[i], o1[i+1], o1[i+2], o1[i+3] = dot4x2(
				a.col(i), a.col(i+1), a.col(i+2), a.col(i+3), b0, b1,
				o0[i], o0[i+1], o0[i+2], o0[i+3], o1[i], o1[i+1], o1[i+2], o1[i+3])
		}
		for ; i < s; i++ {
			o0[i], o1[i] = dot1x2(a.col(i), b0, b1, o0[i], o1[i])
		}
	}
	if j < t {
		b0 := b.col(j)
		o0 := out[j*s : (j+1)*s]
		i := 0
		for ; i+4 <= s; i += 4 {
			o0[i], o0[i+1], o0[i+2], o0[i+3] = dot4x1(
				a.col(i), a.col(i+1), a.col(i+2), a.col(i+3),
				b0, o0[i], o0[i+1], o0[i+2], o0[i+3])
		}
		for ; i < s; i++ {
			o0[i] = dot1x1(a.col(i), b0, o0[i])
		}
	}
}

// atbCheck validates shapes and allocates c when nil.
func atbCheck(a, b, c *Dense) (n, s, t int, out *Dense) {
	if a.Rows != b.Rows {
		panic("linalg: AtB dimension mismatch")
	}
	n, s, t = a.Rows, a.Cols, b.Cols
	if c == nil {
		c = NewDense(s, t)
	} else if c.Rows != s || c.Cols != t {
		panic("linalg: AtB output shape mismatch")
	}
	return n, s, t, c
}

// tilePanels returns the store for tiles per-tile panels of size floats
// each: out itself when a single tile's panel is the result, else partials
// (capacity ≥ tiles·size, grown when short).
func tilePanels(out, partials []float64, tiles, size int) []float64 {
	if tiles == 1 {
		return out[:size]
	}
	if cap(partials) < tiles*size {
		return make([]float64, tiles*size)
	}
	return partials[:tiles*size]
}

// combinePanels sums the nb per-tile panels of buf serially in ascending
// tile order into dst — the fixed combine order that keeps results
// identical across worker budgets. A single panel may be dst itself.
func combinePanels(dst, buf []float64, nb, panel int) {
	for k := 0; k < panel; k++ {
		var sum float64
		for w := 0; w < nb; w++ {
			sum += buf[w*panel+k]
		}
		dst[k] = sum
	}
}
