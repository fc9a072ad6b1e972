// Package parallel provides shared-memory fan-out primitives used by every
// compute kernel in this repository: grained parallel loops over index
// ranges and parallel reductions. All primitives degrade to straight serial
// loops when only one worker is available, so single-threaded baselines pay
// no synchronization cost. The package-level helpers follow the live
// GOMAXPROCS setting; kernels that must keep a stable partition for a
// whole run thread a Budget through instead (see budget.go).
package parallel

import (
	"runtime"
	"sync"
)

// MinGrain is the smallest per-worker chunk of loop iterations worth the
// cost of spawning a goroutine. Loops shorter than MinGrain run serially.
const MinGrain = 1024

// Workers reports the number of workers parallel loops will fan out to.
// It follows runtime.GOMAXPROCS so benchmark harnesses can sweep core
// counts the way the paper sweeps 1..28 cores. Kernels that must keep a
// stable partition across a whole run capture a Budget once instead of
// calling this repeatedly.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// Serial reports whether a length-n loop will run on one worker. Hot
// kernels branch on it to run a plain loop instead of For /
// ForBlock: a func literal passed to those escapes to the heap (its
// parameter flows into goroutines), so skipping the call skips the
// closure allocation — the difference between a steady-state
// allocation-free kernel and one that allocates per invocation.
func Serial(n int) bool {
	return Workers() <= 1 || n < 2*MinGrain
}

// For executes body(i) for every i in [0, n) using up to Workers()
// goroutines. Iterations are divided into contiguous blocks (one per
// worker) so that memory access within a worker stays sequential, matching
// the static scheduling the paper's OpenMP pragmas use.
func For(n int, body func(i int)) {
	Live().For(n, body)
}

// ForBlock divides [0, n) into one contiguous block per worker and runs
// body(lo, hi) on each block concurrently. It is the preferred primitive
// for kernels that carry per-block state (local accumulators, buffers).
func ForBlock(n int, body func(lo, hi int)) {
	Live().ForBlock(n, body)
}

// Run executes the given thunks concurrently and waits for all of them.
func Run(thunks ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(thunks))
	for _, t := range thunks {
		go func(f func()) {
			defer wg.Done()
			f()
		}(t)
	}
	wg.Wait()
}

// SumFloat64 computes the sum of f(i) over [0, n) with a per-worker partial
// accumulator followed by a serial combine, so the result is deterministic
// for a fixed worker count.
func SumFloat64(n int, f func(i int) float64) float64 {
	partials := reduceBlocks(n, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		return s
	})
	var s float64
	for _, p := range partials {
		s += p
	}
	return s
}

// SumInt64 is SumFloat64 for integer summands.
func SumInt64(n int, f func(i int) int64) int64 {
	partials := reduceBlocks(n, func(lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		return s
	})
	var s int64
	for _, p := range partials {
		s += p
	}
	return s
}

// MaxIndexInt32 returns the index in [0, n) maximizing key(i), breaking
// ties toward the smallest index ("ties are arbitrarily broken" in the
// paper; we pick a deterministic rule so runs are reproducible). n must be
// positive.
func MaxIndexInt32(n int, key func(i int) int32) int {
	type im struct {
		idx int
		val int32
	}
	if Serial(n) {
		best := im{0, key(0)}
		for i := 1; i < n; i++ {
			if v := key(i); v > best.val {
				best = im{i, v}
			}
		}
		return best.idx
	}
	partials := reduceBlocks(n, func(lo, hi int) im {
		best := im{lo, key(lo)}
		for i := lo + 1; i < hi; i++ {
			if v := key(i); v > best.val {
				best = im{i, v}
			}
		}
		return best
	})
	best := partials[0]
	for _, p := range partials[1:] {
		if p.val > best.val || (p.val == best.val && p.idx < best.idx) {
			best = p
		}
	}
	return best.idx
}

// MaxIndexFloat64 is MaxIndexInt32 for float64 keys.
func MaxIndexFloat64(n int, key func(i int) float64) int {
	type im struct {
		idx int
		val float64
	}
	if Serial(n) {
		best := im{0, key(0)}
		for i := 1; i < n; i++ {
			if v := key(i); v > best.val {
				best = im{i, v}
			}
		}
		return best.idx
	}
	partials := reduceBlocks(n, func(lo, hi int) im {
		best := im{lo, key(lo)}
		for i := lo + 1; i < hi; i++ {
			if v := key(i); v > best.val {
				best = im{i, v}
			}
		}
		return best
	})
	best := partials[0]
	for _, p := range partials[1:] {
		if p.val > best.val || (p.val == best.val && p.idx < best.idx) {
			best = p
		}
	}
	return best.idx
}

// ArgmaxInt32 returns the index of the maximum element of x, ties broken
// toward the smallest index — the same deterministic rule as
// MaxIndexInt32, but over a slice so no per-call key closure is needed
// and the serial path allocates nothing.
func ArgmaxInt32(x []int32) int {
	if Serial(len(x)) {
		best, bv := 0, x[0]
		for i := 1; i < len(x); i++ {
			if x[i] > bv {
				best, bv = i, x[i]
			}
		}
		return best
	}
	return MaxIndexInt32(len(x), func(i int) int32 { return x[i] })
}

// reduceBlocks runs block(lo, hi) over one contiguous block per worker and
// returns the per-block results in block order.
func reduceBlocks[T any](n int, block func(lo, hi int) T) []T {
	p := blockWorkers(n, Workers())
	if p <= 1 {
		return []T{block(0, n)}
	}
	out := make([]T, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		lo := w * n / p
		hi := (w + 1) * n / p
		go func(w, lo, hi int) {
			defer wg.Done()
			out[w] = block(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	return out
}
