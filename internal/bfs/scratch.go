package bfs

// Scratch owns the reusable traversal state of a Runner: the two frontier
// bitmaps, the top-down queue, and the per-worker next-queue buffers. A
// Runner is bound to one graph; a Scratch is bound only to a vertex-count
// ceiling, so a pooled workspace can carry one Scratch across many
// same-shaped graphs (and regrow it when a bigger graph arrives) without
// re-paying the frontier allocations on every layout job.
type Scratch struct {
	front *Bitmap
	next  *Bitmap
	queue []int32
	nextQ [][]int32
	// Multi-source traversal state: per-vertex 64-bit search masks. Only
	// allocated once an MSBFS call arrives (the single-source
	// runner never touches them).
	msSeen  []uint64
	msFront []uint64
	msNext  []uint64
	// Per-block frontier summaries for the tiled direction-optimizing
	// engine: one bit per msBlockVerts-vertex block (msFrontSum marks
	// blocks holding frontier bits, msNextSum next-frontier bits), so
	// sparse levels skip whole blocks instead of striding all n.
	msFrontSum []uint64
	msNextSum  []uint64
}

// NewScratch returns traversal scratch sized for n-vertex graphs and the
// given worker count.
func NewScratch(n, workers int) *Scratch {
	sc := &Scratch{}
	sc.ensure(n, workers)
	return sc
}

// ensure grows the scratch to cover n vertices and workers per-worker
// queues. Already-sufficient buffers are kept (capacity is never shed),
// so reuse on a same-shaped graph touches no allocator.
func (sc *Scratch) ensure(n, workers int) {
	if sc.front == nil || len(sc.front.words) < (n+63)/64 {
		sc.front = NewBitmap(n)
		sc.next = NewBitmap(n)
	}
	if sc.queue == nil {
		sc.queue = make([]int32, 0, 1024)
	}
	if len(sc.nextQ) < workers {
		nq := make([][]int32, workers)
		copy(nq, sc.nextQ)
		sc.nextQ = nq
	}
}

// ensureMS grows the multi-source mask buffers (and their block
// summaries) to cover n vertices.
func (sc *Scratch) ensureMS(n int) {
	if cap(sc.msSeen) < n {
		sc.msSeen = make([]uint64, n)
		sc.msFront = make([]uint64, n)
		sc.msNext = make([]uint64, n)
	}
	sc.msSeen, sc.msFront, sc.msNext = sc.msSeen[:n], sc.msFront[:n], sc.msNext[:n]
	sw := (msBlocks(n) + 63) / 64
	if cap(sc.msFrontSum) < sw {
		sc.msFrontSum = make([]uint64, sw)
		sc.msNextSum = make([]uint64, sw)
	}
	sc.msFrontSum, sc.msNextSum = sc.msFrontSum[:sw], sc.msNextSum[:sw]
}
