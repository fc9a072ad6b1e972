package bfs

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// msBlockVerts is the vertex-range width of one MSBFS block: the fixed,
// worker-count-independent tiling every per-level pass runs over, one
// parallel.TileRows wide, so parallel.ReduceBlocks(n) counts the blocks
// and summary bitmaps sized by it can never be desynchronized by a
// worker-count change. One block's three mask slabs (seen, frontier,
// next) are 3·4096·8 B = 96 KiB, so the fused finish pass re-touches
// words the expand pass just wrote while they are still cache-resident
// instead of striding all n again. Unlike the reduction grid, blocks are
// aligned: block b is [b·msBlockVerts, (b+1)·msBlockVerts) ∩ [0, n).
const msBlockVerts = parallel.TileRows

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
// keep Unreached. The traversal runs over sc's pooled mask slabs (nil
// starts from an empty Scratch, sized here). opt carries the same
// direction-switch parameters as the single-source Runner, so one
// configuration drives both engines.
//
// The engine is direction-optimizing (Beamer α/β) and cache-tiled. Every
// pass is written once, as a method on the scratch's msState, and runs
// over the fixed msBlockVerts tiling through parallel.ForBlockIndexed on
// min(workers, blocks) workers — a one-worker call runs inline on the
// calling goroutine, so one worker runs the same passes as many, and a
// call on a warmed scratch allocates nothing. A reset pass clears the
// distance rows and mask slabs; then each level runs two passes:
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
// budget and either direction, and the Stats counts are identical for
// every budget: opt.ForceTopDown changes timing and Stats only.
func MSBFS(bud parallel.Budget, g *graph.CSR, sources []int32, dists [][]int32, sc *Scratch, opt Options) Stats {
	if len(sources) > 64 {
		panic("bfs: MSBFS supports at most 64 sources per batch")
	}
	if len(dists) < len(sources) {
		panic("bfs: MSBFS needs one distance row per source")
	}
	opt = opt.withDefaults()
	if sc == nil {
		sc = &Scratch{}
	}
	n := g.NumV
	sc.ensureMS(n)
	s := &sc.ms
	s.g, s.dists = g, dists[:len(sources)]
	blocks := parallel.ReduceBlocks(n)
	// The clamp is against the block count, not MinGrain: one block is
	// 4096 vertices of real work.
	p := min(bud.Workers(), blocks)
	parallel.ForBlockIndexed(p, blocks, s.resetPass)
	clear(s.frontSum)
	clear(s.nextSum)

	// full is the active source mask: bottom-up skips vertices already
	// seen by every search in the batch.
	s.full = ^uint64(0)
	if len(sources) < 64 {
		s.full = uint64(1)<<uint(len(sources)) - 1
	}
	var frontierVerts, frontierEdges int64
	for i, src := range sources {
		bit := uint64(1) << uint(i)
		if s.frontier[src] == 0 {
			frontierVerts++
			frontierEdges += int64(g.Degree(src))
		}
		s.seen[src] |= bit
		s.frontier[src] |= bit
		blk := int(src) / msBlockVerts
		s.frontSum[blk>>6] |= uint64(1) << uint(blk&63)
		dists[i][src] = 0
	}
	unexplored := int64(len(g.Adj)) - frontierEdges

	var st Stats
	s.level = 0
	bottomUp := false
	for frontierVerts > 0 {
		st.Levels++
		s.level++
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
		s.scanned, s.verts, s.edges = 0, 0, 0
		if bottomUp {
			parallel.ForBlockIndexed(p, blocks, s.bottomUpPass)
			st.BottomUpSteps++
		} else {
			parallel.ForBlockIndexed(p, blocks, s.topDownPass)
			st.TopDownSteps++
		}
		parallel.ForBlockIndexed(p, blocks, s.finishPass)
		st.ScannedEdges += s.scanned
		// Swap the roles of the two frontier slabs and their summaries; the
		// finish pass already zeroed the outgoing frontier's words, so the
		// incoming next buffer is clean. Only the tiny summary needs a
		// fresh clear (⌈blocks/64⌉ words, ≤ n/2^18).
		s.frontier, s.next = s.next, s.frontier
		s.frontSum, s.nextSum = s.nextSum, s.frontSum
		clear(s.nextSum)
		frontierVerts, frontierEdges = s.verts, s.edges
		unexplored -= s.edges
	}
	// Drop the caller's graph and rows so a pooled scratch pins neither.
	s.g, s.dists = nil, nil
	st.Levels-- // the last level discovered nothing
	if st.Levels < 0 {
		st.Levels = 0
	}
	return st
}

// msState is one MSBFS call's traversal state, kept in Scratch. The
// passes are its methods; their method values are built once per Scratch
// (ensureMS), so a level hands a stored func to parallel.ForBlockIndexed
// and nothing escapes per call.
type msState struct {
	g     *graph.CSR
	dists [][]int32 // one distance row per source of the batch
	// Per-vertex 64-bit search masks: the searches that have reached the
	// vertex, whose current level includes it, and whose next level does.
	seen, frontier, next []uint64
	// Per-block summaries, one bit per msBlockVerts-vertex block: blocks
	// holding frontier bits and blocks holding next bits, so sparse
	// levels skip whole blocks instead of striding all n.
	frontSum, nextSum []uint64
	full              uint64 // the active source mask
	level             int32
	// The level's scanned edges and new frontier's vertices and degree
	// sum, each worker adding its share once per pass.
	scanned, verts, edges int64

	resetPass, topDownPass, bottomUpPass, finishPass func(w, blo, bhi int)
}

// blockSpan returns block blk's vertex range in an n-vertex graph.
func blockSpan(blk, n int) (lo, hi int) {
	lo = blk * msBlockVerts
	return lo, min(lo+msBlockVerts, n)
}

// reset fills blocks [blo, bhi) of every distance row with Unreached and
// zeroes them in the three mask slabs.
func (s *msState) reset(_, blo, bhi int) {
	lo, hi := blo*msBlockVerts, min(bhi*msBlockVerts, s.g.NumV)
	for _, d := range s.dists {
		d = d[lo:hi]
		for i := range d {
			d[i] = Unreached
		}
	}
	clear(s.seen[lo:hi])
	clear(s.frontier[lo:hi])
	clear(s.next[lo:hi])
}

// topDown is the top-down expand over blocks [blo, bhi): every frontier
// vertex pushes its mask, CAS-claiming the bits of seen[u] no other
// search brought first, then records their distances and ORs them into
// next[u] and u's block summary. Claims race across workers, so every
// shared word is read and written atomically.
func (s *msState) topDown(_, blo, bhi int) {
	g, dists, level := s.g, s.dists, s.level
	seen, frontier, next, frontSum, nextSum := s.seen, s.frontier, s.next, s.frontSum, s.nextSum
	var scanned int64
	for blk := blo; blk < bhi; blk++ {
		if frontSum[blk>>6]&(uint64(1)<<uint(blk&63)) == 0 {
			continue
		}
		lo, hi := blockSpan(blk, g.NumV)
		for v := lo; v < hi; v++ {
			f := frontier[v]
			if f == 0 {
				continue
			}
			adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
			scanned += int64(len(adj))
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
	atomic.AddInt64(&s.scanned, scanned)
}

// bottomUp is the bottom-up expand over blocks [blo, bhi): every vertex
// still missing bits of the active mask ORs its neighbors' frontier masks
// until it has them all or runs out of neighbors, and claims what it
// found.
func (s *msState) bottomUp(_, blo, bhi int) {
	g, dists, level, full := s.g, s.dists, s.level, s.full
	seen, frontier, next, nextSum := s.seen, s.frontier, s.next, s.nextSum
	var scanned int64
	for blk := blo; blk < bhi; blk++ {
		lo, hi := blockSpan(blk, g.NumV)
		claimed := false
		for v := lo; v < hi; v++ {
			missing := full &^ seen[v]
			if missing == 0 {
				continue
			}
			adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
			var claim uint64
			used := len(adj)
			for k := 0; k < len(adj); k++ {
				claim |= frontier[adj[k]]
				if claim&missing == missing {
					used = k + 1
					break
				}
			}
			scanned += int64(used)
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
	atomic.AddInt64(&s.scanned, scanned)
}

// finish counts the new frontier's vertices and degree sum over blocks
// [blo, bhi) and zeroes the old frontier's words there, each half
// skipping blocks its summary marks empty.
func (s *msState) finish(_, blo, bhi int) {
	g, frontier, next, frontSum, nextSum := s.g, s.frontier, s.next, s.frontSum, s.nextSum
	var verts, edges int64
	for blk := blo; blk < bhi; blk++ {
		lo, hi := blockSpan(blk, g.NumV)
		if nextSum[blk>>6]&(uint64(1)<<uint(blk&63)) != 0 {
			for v := lo; v < hi; v++ {
				if next[v] != 0 {
					verts++
					edges += g.Offsets[v+1] - g.Offsets[v]
				}
			}
		}
		if frontSum[blk>>6]&(uint64(1)<<uint(blk&63)) != 0 {
			clear(frontier[lo:hi])
		}
	}
	atomic.AddInt64(&s.verts, verts)
	atomic.AddInt64(&s.edges, edges)
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
