package bfs

import "sync/atomic"

// Scratch owns the reusable traversal state of a Runner — the two
// frontier bitmaps, the top-down queue, and the per-worker next-queue
// buffers. A Runner is bound to one graph at a time; a Scratch is bound
// only to a vertex-count ceiling, so a pooled workspace can carry one
// Scratch across many same-shaped graphs (and regrow it when a bigger
// graph arrives) without re-paying the frontier allocations on every
// layout job.
type Scratch struct {
	front *Bitmap
	next  *Bitmap
	queue []int32
	nextQ [][]int32
	// A bottom-up step's new frontier vertices, their degree sum and its
	// scanned edges, each worker adding its share once.
	bu [3]atomic.Int64
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
	if len(sc.nextQ) < workers {
		nq := make([][]int32, workers)
		copy(nq, sc.nextQ)
		sc.nextQ = nq
	}
	// The serial top-down step writes its next queue without a bounds
	// test, so the two queues it swaps hold n slots each.
	if cap(sc.queue) < n || cap(sc.nextQ[0]) < n {
		sc.queue, sc.nextQ[0] = make([]int32, 0, n), make([]int32, 0, n)
	}
}
