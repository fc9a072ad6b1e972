package bfs

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// msBlockVerts is the vertex-range width of one MSBFS block: the fixed,
// worker-count-independent tiling every per-level pass runs over (the
// same 4096-row tile the linalg reduction layer uses, see
// linalg.ReduceBlocks). One block's three mask slabs (seen, frontier,
// next) are 3·4096·8 B = 96 KiB, so the fused finish pass re-touches
// words the expand pass just wrote while they are still cache-resident
// instead of striding all n again.
const msBlockVerts = 4096

// msBlocks returns the number of fixed vertex-range blocks covering n
// vertices (at least 1). Like linalg.ReduceBlocks it depends only on n,
// so summary bitmaps sized by it can never be desynchronized by a
// worker-count change.
func msBlocks(n int) int {
	if n <= msBlockVerts {
		return 1
	}
	return (n + msBlockVerts - 1) / msBlockVerts
}

// MSBFS runs up to 64 breadth-first searches simultaneously using
// bit-parallel frontiers (the multi-source BFS of Then et al.): each
// vertex carries a 64-bit mask of the searches that have reached it, so
// one pass over an adjacency list advances every search at once. This is
// the natural engine for the random-pivots strategy (§4.4, Table 6) when
// the number of pivots exceeds the core count: the s distance vectors are
// produced in ⌈s/64⌉ passes whose memory traffic is shared across
// sources.
//
// dists must have one row (length NumV) per source. Unreached vertices
// keep Unreached. The traversal runs over sc's pooled mask buffers (nil
// allocates fresh ones); with a scratch it performs no O(n)-sized
// allocations, and on one worker the whole call is allocation-free: every
// level loop has a plain serial body, so no closure ever escapes. opt
// carries the same direction-switch parameters as the single-source
// Runner, so one configuration drives both engines.
//
// The engine is direction-optimizing (Beamer α/β) and cache-tiled. Per
// level it runs two passes over the fixed msBlockVerts tiling:
//
//  1. Expand — top-down (frontier vertices push: CAS-claim bits of
//     seen[u], OR them into next[u]) or bottom-up (every vertex still
//     missing bits of the active source mask scans its own adjacency,
//     ORs its neighbors' frontier masks, and claims the missing bits
//     with one plain store — the vertex is the only writer of its own
//     words, so the bottom-up step needs no CAS at all, and it stops
//     scanning as soon as every missing bit is found).
//  2. Finish — one fused block pass that (a) counts the new frontier's
//     occupied vertices and their total degree (the scanned-edge
//     estimates driving the α/β switch), and (b) clears the old
//     frontier's words so the buffer is ready to be the next level's
//     next. Both halves consult the per-block summary bitmaps, so
//     sparse levels touch only blocks that actually hold frontier bits
//     instead of striding all n.
//
// Claims always store the same level regardless of direction or of which
// worker wins, so the distance rows are bitwise identical for every
// budget and either direction: opt.ForceTopDown changes timing and Stats
// only.
func MSBFS(bud parallel.Budget, g *graph.CSR, sources []int32, dists [][]int32, sc *Scratch, opt Options) Stats {
	if len(sources) > 64 {
		panic("bfs: MSBFS supports at most 64 sources per batch")
	}
	if len(dists) < len(sources) {
		panic("bfs: MSBFS needs one distance row per source")
	}
	opt = opt.withDefaults()
	n := g.NumV
	serial := bud.Serial(n)
	for s := range sources {
		d := dists[s]
		if serial {
			for i := range d {
				d[i] = Unreached
			}
		} else {
			bud.For(n, func(i int) { d[i] = Unreached })
		}
	}
	blocks := msBlocks(n)
	sumWords := (blocks + 63) / 64
	var seen, frontier, next, frontSum, nextSum []uint64
	if sc != nil {
		sc.ensureMS(n)
		seen, frontier, next = sc.msSeen, sc.msFront, sc.msNext
		frontSum, nextSum = sc.msFrontSum, sc.msNextSum
		if serial {
			for i := 0; i < n; i++ {
				seen[i], frontier[i], next[i] = 0, 0, 0
			}
		} else {
			bud.For(n, func(i int) { seen[i], frontier[i], next[i] = 0, 0, 0 })
		}
		for i := range frontSum {
			frontSum[i], nextSum[i] = 0, 0
		}
	} else {
		seen = make([]uint64, n)     // searches that have reached each vertex
		frontier = make([]uint64, n) // searches whose current level includes the vertex
		next = make([]uint64, n)
		frontSum = make([]uint64, sumWords) // blocks with any frontier bit
		nextSum = make([]uint64, sumWords)  // blocks with any next bit
	}

	// full is the active source mask: bottom-up skips vertices already
	// seen by every search in the batch.
	full := ^uint64(0)
	if len(sources) < 64 {
		full = uint64(1)<<uint(len(sources)) - 1
	}

	var frontierVerts, frontierEdges int64
	for s, src := range sources {
		bit := uint64(1) << uint(s)
		if frontier[src] == 0 {
			frontierVerts++
			frontierEdges += int64(g.Degree(src))
		}
		seen[src] |= bit
		frontier[src] |= bit
		blk := int(src) / msBlockVerts
		frontSum[blk>>6] |= uint64(1) << uint(blk&63)
		dists[s][src] = 0
	}
	unexplored := int64(len(g.Adj)) - frontierEdges

	var st Stats
	level := int32(0)
	bottomUp := false
	// Workers for the block passes: the clamp is against the block count,
	// not MinGrain — one block is 4096 vertices of real work.
	p := 1
	if !serial {
		if p = bud.Workers(); p > blocks {
			p = blocks
		}
	}
	var scanTot, nfTot, neTot int64
	// The parallel pass bodies are hoisted out of the level loop (reading
	// level/frontier state through captured variables) so each closure is
	// constructed once per traversal, not once per level.
	tdPar := func(w, blo, bhi int) {
		var localScan int64
		for blk := blo; blk < bhi; blk++ {
			if frontSum[blk>>6]&(uint64(1)<<uint(blk&63)) == 0 {
				continue
			}
			lo := blk * msBlockVerts
			hi := lo + msBlockVerts
			if hi > n {
				hi = n
			}
			for v := lo; v < hi; v++ {
				f := frontier[v]
				if f == 0 {
					continue
				}
				adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
				localScan += int64(len(adj))
				for _, u := range adj {
					for {
						old := atomic.LoadUint64(&seen[u])
						newBits := f &^ old
						if newBits == 0 {
							break
						}
						if atomic.CompareAndSwapUint64(&seen[u], old, old|newBits) {
							// Claimed newBits for u: record distances and
							// queue u for those searches.
							for b := newBits; b != 0; b &= b - 1 {
								dists[bits.TrailingZeros64(b)][u] = level
							}
							atomicOr(&next[u], newBits)
							ub := int(u) / msBlockVerts
							if m := uint64(1) << uint(ub&63); atomic.LoadUint64(&nextSum[ub>>6])&m == 0 {
								atomicOr(&nextSum[ub>>6], m)
							}
							break
						}
					}
				}
			}
		}
		atomic.AddInt64(&scanTot, localScan)
	}
	buPar := func(w, blo, bhi int) {
		var localScan int64
		for blk := blo; blk < bhi; blk++ {
			lo := blk * msBlockVerts
			hi := lo + msBlockVerts
			if hi > n {
				hi = n
			}
			claimed := false
			for v := lo; v < hi; v++ {
				missing := full &^ seen[v]
				if missing == 0 {
					continue
				}
				adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
				var claim uint64
				scanned := len(adj)
				for k := 0; k < len(adj); k++ {
					claim |= frontier[adj[k]]
					if claim&missing == missing {
						scanned = k + 1
						break
					}
				}
				localScan += int64(scanned)
				newBits := claim & missing
				if newBits == 0 {
					continue
				}
				// The vertex claims its own bits: this worker owns [lo, hi),
				// frontier is read-only this level, and next[v] was cleared
				// by the previous finish pass — one plain store each, no CAS.
				seen[v] |= newBits
				next[v] = newBits
				for b := newBits; b != 0; b &= b - 1 {
					dists[bits.TrailingZeros64(b)][v] = level
				}
				claimed = true
			}
			if claimed {
				// Once per claiming block; the summary word spans 64 blocks
				// and may straddle a worker boundary, hence the atomic.
				atomicOr(&nextSum[blk>>6], uint64(1)<<uint(blk&63))
			}
		}
		atomic.AddInt64(&scanTot, localScan)
	}
	finPar := func(w, blo, bhi int) {
		var verts, edges int64
		for blk := blo; blk < bhi; blk++ {
			lo := blk * msBlockVerts
			hi := lo + msBlockVerts
			if hi > n {
				hi = n
			}
			if nextSum[blk>>6]&(uint64(1)<<uint(blk&63)) != 0 {
				for v := lo; v < hi; v++ {
					if next[v] != 0 {
						verts++
						edges += g.Offsets[v+1] - g.Offsets[v]
					}
				}
			}
			if frontSum[blk>>6]&(uint64(1)<<uint(blk&63)) != 0 {
				for v := lo; v < hi; v++ {
					frontier[v] = 0
				}
			}
		}
		atomic.AddInt64(&nfTot, verts)
		atomic.AddInt64(&neTot, edges)
	}

	for frontierVerts > 0 {
		st.Levels++
		level++
		// Beamer α/β direction switch on the scanned-edge estimates; no
		// frontier conversion is needed — both directions read and write
		// the same bitmap slabs, which is why this engine keeps the plain
		// two-term rule: a switch converts nothing here, and goBottomUp's
		// growing/shrinking and sweep-cost terms measured neutral on it.
		if !bottomUp && !opt.ForceTopDown && frontierEdges > unexplored/opt.Alpha {
			bottomUp = true
			st.Switches++
		} else if bottomUp && frontierVerts < int64(n)/opt.Beta {
			bottomUp = false
			st.Switches++
		}
		if p <= 1 {
			// Plain single-worker sweeps: no atomics, no closure dispatch.
			var localScan int64
			if bottomUp {
				for blk := 0; blk < blocks; blk++ {
					lo := blk * msBlockVerts
					hi := lo + msBlockVerts
					if hi > n {
						hi = n
					}
					claimed := false
					for v := lo; v < hi; v++ {
						missing := full &^ seen[v]
						if missing == 0 {
							continue
						}
						adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
						var claim uint64
						scanned := len(adj)
						for k := 0; k < len(adj); k++ {
							claim |= frontier[adj[k]]
							if claim&missing == missing {
								scanned = k + 1
								break
							}
						}
						localScan += int64(scanned)
						newBits := claim & missing
						if newBits == 0 {
							continue
						}
						seen[v] |= newBits
						next[v] = newBits
						for b := newBits; b != 0; b &= b - 1 {
							dists[bits.TrailingZeros64(b)][v] = level
						}
						claimed = true
					}
					if claimed {
						nextSum[blk>>6] |= uint64(1) << uint(blk&63)
					}
				}
			} else {
				for blk := 0; blk < blocks; blk++ {
					if frontSum[blk>>6]&(uint64(1)<<uint(blk&63)) == 0 {
						continue
					}
					lo := blk * msBlockVerts
					hi := lo + msBlockVerts
					if hi > n {
						hi = n
					}
					for v := lo; v < hi; v++ {
						f := frontier[v]
						if f == 0 {
							continue
						}
						adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
						localScan += int64(len(adj))
						for _, u := range adj {
							newBits := f &^ seen[u]
							if newBits == 0 {
								continue
							}
							seen[u] |= newBits
							for b := newBits; b != 0; b &= b - 1 {
								dists[bits.TrailingZeros64(b)][u] = level
							}
							next[u] |= newBits
							ub := int(u) / msBlockVerts
							nextSum[ub>>6] |= uint64(1) << uint(ub&63)
						}
					}
				}
			}
			scanTot = localScan
			nfTot, neTot = 0, 0
			for blk := 0; blk < blocks; blk++ {
				lo := blk * msBlockVerts
				hi := lo + msBlockVerts
				if hi > n {
					hi = n
				}
				if nextSum[blk>>6]&(uint64(1)<<uint(blk&63)) != 0 {
					for v := lo; v < hi; v++ {
						if next[v] != 0 {
							nfTot++
							neTot += g.Offsets[v+1] - g.Offsets[v]
						}
					}
				}
				if frontSum[blk>>6]&(uint64(1)<<uint(blk&63)) != 0 {
					for v := lo; v < hi; v++ {
						frontier[v] = 0
					}
				}
			}
		} else {
			scanTot, nfTot, neTot = 0, 0, 0
			if bottomUp {
				parallel.ForBlockIndexed(p, blocks, buPar)
			} else {
				parallel.ForBlockIndexed(p, blocks, tdPar)
			}
			parallel.ForBlockIndexed(p, blocks, finPar)
		}
		if bottomUp {
			st.BottomUpSteps++
		} else {
			st.TopDownSteps++
		}
		st.ScannedEdges += scanTot
		// Swap the roles of the two frontier slabs and their summaries; the
		// finish pass already zeroed the outgoing frontier's words, so the
		// incoming next buffer is clean. Only the tiny summary needs a
		// fresh clear (⌈blocks/64⌉ words, ≤ n/2^18).
		frontier, next = next, frontier
		frontSum, nextSum = nextSum, frontSum
		for i := range nextSum {
			nextSum[i] = 0
		}
		frontierVerts, frontierEdges = nfTot, neTot
		unexplored -= neTot
	}
	st.Levels-- // the last level discovered nothing
	if st.Levels < 0 {
		st.Levels = 0
	}
	return st
}

// atomicOr ORs mask into *addr. Every caller holds bits of mask
// exclusively (they were just CAS-claimed from the seen word), so mask
// can never already be fully present — the helper goes straight to the
// CAS instead of the old load-and-test first iteration, which could
// never return early.
func atomicOr(addr *uint64, mask uint64) {
	for {
		old := atomic.LoadUint64(addr)
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return
		}
	}
}
