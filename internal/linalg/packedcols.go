package linalg

import (
	"slices"

	"repro/internal/parallel"
)

// PanelCols is the column width of one MGS panel and of the multi-axpy's
// full chunk, whose eight products are summed before one subtraction;
// wider panels would only re-stream columns that no longer fit cache.
// The multi-dot runs each panel as two 4-column register kernels.
const PanelCols = 8

// PackedCols is the tile-major store for the kept columns of a
// Gram-Schmidt sweep, with the fused kernels that project against it: a
// multi-dot computing the inner products of one vector against a range of
// columns in a single pass over memory, and the multi-axpy applying the
// combined update. A Level-1 formulation streams the work vector (and d)
// twice per kept column; these stream them twice per panel of PanelCols
// columns, and every kept column exactly as often as before — the
// remaining bandwidth is the irreducible column traffic of Gram-Schmidt.
//
// A flat column-major arena keeps each kept column n·8 bytes from the next —
// a power of two at layout sizes, so the eight columns of a panel chunk
// collide in the same cache sets and each projection pass re-reads them from
// DRAM. Here every column is split over the fixed parallel.ReduceBlocks(n)
// reduction tiles and stored tile-major: tile t holds all columns'
// [t·n/tiles, (t+1)·n/tiles) rows contiguously, each column slot padded by
// packColPad floats so adjacent slots sit a non-power-of-two stride apart
// and panel chunks stream conflict-free. A column is packed once when it is
// kept (AppendScaledDDotBudget, the fused keep step) and then re-read in
// packed form by every later projection, so packing costs nothing extra.
// Every reduction runs over the fixed tiling with per-tile partials combined
// serially in tile order, so all results are bitwise identical for every
// worker budget.
type PackedCols struct {
	buf     []float64
	n       int // rows per column
	tiles   int // parallel.ReduceBlocks(n)
	stride  int // floats per column slot: ⌈n/tiles⌉ + packColPad
	capCols int // column slots per tile
	k       int // columns currently stored
}

// packColPad is the padding appended to each column slot: one cache line
// of floats, enough to stagger the power-of-two tile widths the layout
// sizes produce (4096-row tiles → 32 KiB slots that would otherwise all
// map to the same L1 sets).
const packColPad = 8

// Ensure shapes the store for n-row columns with room for capCols of
// them, growing the backing storage only when the footprint exceeds its
// capacity, and resets the column count to zero.
func (pc *PackedCols) Ensure(n, capCols int) {
	tiles := parallel.ReduceBlocks(n)
	stride := (n+tiles-1)/tiles + packColPad
	need := tiles * capCols * stride
	if cap(pc.buf) < need {
		pc.buf = make([]float64, need)
	}
	pc.buf = pc.buf[:cap(pc.buf)]
	pc.n, pc.tiles, pc.stride, pc.capCols, pc.k = n, tiles, stride, capCols, 0
}

// Len reports the number of stored columns.
func (pc *PackedCols) Len() int { return pc.k }

// slot returns column j's storage for tile t; only the tile's width is
// valid, the rest is padding.
func (pc *PackedCols) slot(t, j int) []float64 {
	base := (t*pc.capCols + j) * pc.stride
	return pc.buf[base : base+pc.stride]
}

// tileCols views the stored columns j0, j0+1, … of tile t over the h rows
// that start off rows into the tile.
func (pc *PackedCols) tileCols(t, j0, off, h int) strided {
	return strided{pc.buf[(t*pc.capCols+j0)*pc.stride+off:], pc.stride, h}
}

// AppendScaledDDotBudget appends the column a·src to the store and returns
// its D-norm ⟨a·src, a·src⟩_D (plain when d is nil) from the same pass: the
// fused form of the DOrtho keep step, which would otherwise copy, scale, and
// then re-stream the column a third time for its D-norm. partials is the
// reduction buffer (capacity ≥ parallel.ReduceBlocks(n), grown when short).
// The store must have a free column slot (see Ensure).
func (pc *PackedCols) AppendScaledDDotBudget(bud parallel.Budget, src, d []float64, a float64, partials []float64) float64 {
	if pc.k == pc.capCols {
		panic("linalg: PackedCols is full")
	}
	pc.k++
	return parallel.SumTiles(bud.Workers(), pc.n, packArgs{pc: pc, j0: pc.k - 1, work: src, d: d, a: a}, partials, packArgs.appendTile)
}

// packArgs is the operands of one PackedCols kernel call: the store, the
// column range [j0, j1), the vectors and the scalar. Its methods are the
// kernels' tile bodies; the walks take it by value, so a one-worker call
// allocates nothing.
type packArgs struct {
	pc     *PackedCols
	j0, j1 int
	// work is the streamed vector (the source column of an append, the
	// destination of a copy), d the optional D weights, and coeffs the
	// multi-axpy's coefficients or the multi-dot's per-tile panels.
	work, d, coeffs []float64
	a               float64
}

// appendTile is one tile of AppendScaledDDotBudget: rows [lo, hi) of
// a·src written to tile t's slot of column j0, their D-norm returned.
func (pa packArgs) appendTile(t, lo, hi int) float64 {
	slot, src, d, a := pa.pc.slot(t, pa.j0), pa.work, pa.d, pa.a
	var s float64
	if d == nil {
		for i := lo; i < hi; i++ {
			v := a * src[i]
			slot[i-lo] = v
			s += v * v
		}
		return s
	}
	for i := lo; i < hi; i++ {
		v := a * src[i]
		slot[i-lo] = v
		s += v * d[i] * v
	}
	return s
}

// DDotPanelRangeBudget appends ⟨col_j, work⟩_D (plain inner products when d
// is nil) for every stored column j in [j0, j1) to out and returns it.
// partials is the per-tile arena (capacity ≥
// parallel.ReduceBlocks(n)·(j1−j0), grown when short); out should have spare
// capacity for j1−j0 more entries to keep the call allocation-free.
func (pc *PackedCols) DDotPanelRangeBudget(bud parallel.Budget, j0, j1 int, work, d, out, partials []float64) []float64 {
	k := j1 - j0
	if j1 > pc.k {
		panic("linalg: PackedCols column range exceeds stored columns")
	}
	if k <= 0 {
		return out
	}
	base := len(out)
	out = slices.Grow(out, k)[:base+k]
	panels := tilePanels(out[base:], partials, pc.tiles, k)
	parallel.Tiles(bud.Workers(), pc.n, pc.tiles, packArgs{pc: pc, j0: j0, j1: j1, work: work, d: d, coeffs: panels}, packArgs.dotTile)
	combinePanels(out[base:], panels, pc.tiles, k)
	return out
}

// dotTile fills tile t's panel acc[j−j0] = ⟨col_j, work⟩_D over its rows
// [lo, hi). The inner products are independent, so columns [j0, j1) are
// taken eight, four, two, then one at a time by register kernels; each
// accumulator still adds one product per row in ascending row order.
func (pa packArgs) dotTile(_, t, lo, hi int) {
	pc, j0, j1 := pa.pc, pa.j0, pa.j1
	acc := pa.coeffs[t*(j1-j0) : (t+1)*(j1-j0)]
	work, d := pa.work[lo:hi], pa.d
	if d != nil {
		d = d[lo:hi]
	}
	j := j0
	for ; j+PanelCols <= j1; j += PanelCols {
		dDots8(pc.slot(t, j), pc.slot(t, j+1), pc.slot(t, j+2), pc.slot(t, j+3),
			pc.slot(t, j+4), pc.slot(t, j+5), pc.slot(t, j+6), pc.slot(t, j+7), work, d, acc[j-j0:])
	}
	for ; j+4 <= j1; j += 4 {
		a := acc[j-j0 : j-j0+4]
		a[0], a[1], a[2], a[3] = dDot4(pc.slot(t, j), pc.slot(t, j+1), pc.slot(t, j+2), pc.slot(t, j+3), work, d)
	}
	if j+2 <= j1 {
		acc[j-j0], acc[j-j0+1] = dDot2(pc.slot(t, j), pc.slot(t, j+1), work, d)
		j += 2
	}
	if j < j1 {
		acc[j-j0] = dDot1(pc.slot(t, j), work, d)
	}
}

// dDot4 returns ⟨c_j, w⟩_D for four packed column slots against the
// tile's rows w (weighted by d unless nil). The slots are cut to len(w),
// so the loop carries no bounds checks and its accumulators never leave
// registers.
func dDot4(c0, c1, c2, c3, w, d []float64) (a0, a1, a2, a3 float64) {
	c0, c1, c2, c3 = c0[:len(w)], c1[:len(w)], c2[:len(w)], c3[:len(w)]
	if d == nil {
		for r, x := range w {
			a0 += c0[r] * x
			a1 += c1[r] * x
			a2 += c2[r] * x
			a3 += c3[r] * x
		}
		return
	}
	d = d[:len(w)]
	for r, x := range w {
		x = d[r] * x
		a0 += c0[r] * x
		a1 += c1[r] * x
		a2 += c2[r] * x
		a3 += c3[r] * x
	}
	return
}

// dDot2 is dDot4 for two columns.
func dDot2(c0, c1, w, d []float64) (a0, a1 float64) {
	c0, c1 = c0[:len(w)], c1[:len(w)]
	if d == nil {
		for r, x := range w {
			a0 += c0[r] * x
			a1 += c1[r] * x
		}
		return
	}
	d = d[:len(w)]
	for r, x := range w {
		x = d[r] * x
		a0 += c0[r] * x
		a1 += c1[r] * x
	}
	return
}

// dDot1 is dDot4 for one column.
func dDot1(c0, w, d []float64) (a0 float64) {
	c0 = c0[:len(w)]
	if d == nil {
		for r, x := range w {
			a0 += c0[r] * x
		}
		return
	}
	d = d[:len(w)]
	for r, x := range w {
		a0 += c0[r] * (d[r] * x)
	}
	return
}

// SubtractScaledRangeBudget computes work ← work − Σ_j coeffs[j−j0]·col_j
// over the stored columns [j0, j1) with one fused pass per PanelCols-wide
// chunk: the multi-axpy update of block Gram-Schmidt (and the Level-2
// "gemv" update of CGS). Each element of work is updated by exactly one
// worker, and the per-element combination order is fixed by the chunk
// walk, so results are deterministic regardless of the row partition.
func (pc *PackedCols) SubtractScaledRangeBudget(bud parallel.Budget, j0, j1 int, work, coeffs []float64) {
	if j1 > pc.k {
		panic("linalg: PackedCols column range exceeds stored columns")
	}
	if len(coeffs) != j1-j0 {
		panic("linalg: PackedCols column/coefficient mismatch")
	}
	if j1 <= j0 {
		return
	}
	parallel.Tiles(bud.Workers(), pc.n, pc.tiles, packArgs{pc: pc, j0: j0, j1: j1, work: work, coeffs: coeffs}, packArgs.subTile)
}

// subTile applies the multi-axpy over rows [lo, hi) of tile t for
// columns [j0, j1), walked from j0: each full PanelCols-wide chunk
// subtracts the sum of its eight products in one pass, and the narrow
// tail subtracts product by product in column order, two columns per pass
// and then one. Per element that is one fixed sequence of operations
// whatever the row partition.
func (pa packArgs) subTile(_, t, lo, hi int) {
	pc, j0, j1, coeffs := pa.pc, pa.j0, pa.j1, pa.coeffs
	work := pa.work[lo:hi]
	j := j0
	for ; j+PanelCols <= j1; j += PanelCols {
		f := coeffs[j-j0 : j-j0+PanelCols]
		sub8(work, f, pc.slot(t, j), pc.slot(t, j+1), pc.slot(t, j+2), pc.slot(t, j+3),
			pc.slot(t, j+4), pc.slot(t, j+5), pc.slot(t, j+6), pc.slot(t, j+7))
	}
	for ; j+2 <= j1; j += 2 {
		sub2(work, coeffs[j-j0:j-j0+2], pc.slot(t, j), pc.slot(t, j+1))
	}
	if j < j1 {
		sub1(work, coeffs[j-j0], pc.slot(t, j))
	}
}

// sub8Go is the full-chunk multi-axpy: w ← w − (f0·c0 + … + f7·c7), the
// eight products summed first. The slots are cut to len(w), so the loop
// carries no bounds checks. It and sub2Go, sub1Go are sub8, sub2, sub1
// off amd64 and the oracles of their SSE2 forms.
func sub8Go(w, f, c0, c1, c2, c3, c4, c5, c6, c7 []float64) {
	f = f[:PanelCols]
	f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
	c0, c1, c2, c3 = c0[:len(w)], c1[:len(w)], c2[:len(w)], c3[:len(w)]
	c4, c5, c6, c7 = c4[:len(w)], c5[:len(w)], c6[:len(w)], c7[:len(w)]
	for r := range w {
		w[r] -= f0*c0[r] + f1*c1[r] + f2*c2[r] + f3*c3[r] +
			f4*c4[r] + f5*c5[r] + f6*c6[r] + f7*c7[r]
	}
}

// sub2Go is a tail multi-axpy over two columns: one subtraction per
// column, in column order, on a register copy of each element. A
// four-column version measured no faster than two sub2 passes.
func sub2Go(w, f, c0, c1 []float64) {
	f = f[:2]
	f0, f1 := f[0], f[1]
	c0, c1 = c0[:len(w)], c1[:len(w)]
	for r, x := range w {
		x -= f0 * c0[r]
		x -= f1 * c1[r]
		w[r] = x
	}
}

// sub1Go is sub2Go for one column.
func sub1Go(w []float64, f0 float64, c0 []float64) {
	c0 = c0[:len(w)]
	for r := range w {
		w[r] -= f0 * c0[r]
	}
}

// CopyColIntoBudget unpacks stored column j into the flat dst (length ≥
// n), the tiles fanned out across the budget's workers.
func (pc *PackedCols) CopyColIntoBudget(bud parallel.Budget, dst []float64, j int) {
	parallel.Tiles(bud.Workers(), pc.n, pc.tiles, packArgs{pc: pc, j0: j, work: dst}, packArgs.copyTile)
}

func (pa packArgs) copyTile(_, t, lo, hi int) {
	copy(pa.work[lo:hi], pa.pc.slot(t, pa.j0)[:hi-lo])
}

// RowMajorBudget rewrites the stored columns [first, Len()) as the n×k
// row-major matrix S, k = Len()−first, at the front of the store's own
// buffer, returns that view (valid until the next Ensure) and empties the
// store: S ends the DOrtho sweep in one copy, with no second n·k buffer.
// The tiles go in order, each in two passes fanned out over the budget:
// its 64-row strips are transposed into one tile-sized region of arena
// (≤ ⌈n/tiles⌉·k floats; arena may be nil), then that region is copied to
// the tile's final rows [lo·k, hi·k). Tile t's source block starts at
// t·capCols·stride ≥ lo·k and is wholly read before its copy starts, and
// its rows end at hi·k ≤ (t+1)·⌈n/tiles⌉·k, short of tile t+1's block at
// (t+1)·capCols·stride because k ≤ capCols and ⌈n/tiles⌉ < stride, so no
// copy overwrites a tile that has not been read yet. Only copies move the
// values, so S holds the stored bits.
func (pc *PackedCols) RowMajorBudget(bud parallel.Budget, first int, arena *PackArena) []float64 {
	k := pc.k - first
	if first < 0 || k < 0 {
		panic("linalg: PackedCols column range exceeds stored columns")
	}
	if arena == nil {
		arena = &PackArena{}
	}
	arena.Ensure(1, (pc.stride-packColPad)*k)
	p := bud.Workers()
	x := rowMajorArgs{pc: pc, j0: first, k: k, rows: arena.slot(0)}
	for t := 0; t < pc.tiles; t++ {
		lo, hi := t*pc.n/pc.tiles, (t+1)*pc.n/pc.tiles
		x.t, x.h, x.dst = t, hi-lo, pc.buf[lo*k:hi*k]
		strips := (x.h + 63) / 64
		parallel.Blocks(min(p, strips), strips, x, rowMajorArgs.transpose)
		parallel.Blocks(min(p, strips), strips, x, rowMajorArgs.place)
	}
	pc.k = 0
	return pc.buf[:pc.n*k]
}

// rowMajorArgs is one tile of a RowMajorBudget call: the store, the tile
// t, its h rows of the k columns from j0, the arena region rows they are
// transposed into and their final place dst. Its methods run on ranges of
// the tile's 64-row strips.
type rowMajorArgs struct {
	pc          *PackedCols
	t, j0, k, h int
	rows, dst   []float64
}

// transpose writes strips [s0, s1) of the tile row-major into rows.
func (x rowMajorArgs) transpose(_, s0, s1 int) {
	r0, r1 := s0*64, min(s1*64, x.h)
	packRowMajor(x.pc.tileCols(x.t, x.j0, r0, r1-r0), x.rows, r0, x.k)
}

// place copies strips [s0, s1) of the transposed tile to their final rows.
func (x rowMajorArgs) place(_, s0, s1 int) {
	r0, r1 := s0*64, min(s1*64, x.h)
	copy(x.dst[r0*x.k:r1*x.k], x.rows[r0*x.k:r1*x.k])
}
