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
	for i := range b.words {
		b.words[i] = 0
	}
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

// Get reports bit i.
func (b *Bitmap) Get(i int32) bool {
	return b.words[i>>6]&(uint64(1)<<(uint(i)&63)) != 0
}

// Swap exchanges the contents of two bitmaps (pointer swap).
func (b *Bitmap) Swap(o *Bitmap) {
	b.words, o.words = o.words, b.words
}
