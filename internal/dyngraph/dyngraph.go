// Package dyngraph provides the mutable graph type behind the dynamic
// serving path: a CSR snapshot plus buffered adjacency deltas. The batch
// pipeline assumes immutable CSR inputs everywhere — BFS runners, the
// workspace pool, the render cache, and the job engine all key off a
// graph pointer that never changes under them — so mutability lives one
// level up: every mutation (edge insert/delete, vertex add/remove) lands
// in a small add/delete overlay, queries consult snapshot+overlay, and
// the overlay is folded into a fresh CSR by an amortized rebuild once the
// dirty-edge count crosses a configurable threshold (or a caller needs a
// materialized graph and calls Flush). Each rebuild bumps a generation
// counter, which the catalog and render cache use to invalidate anything
// derived from an older topology.
//
// Rebuilds merge the old CSR with per-vertex sorted delta lists in one
// linear pass — O(n + m + Δ log Δ) — instead of re-running the full
// graph.Builder sort/dedupe pipeline, which is the amortization that
// makes a mutation-heavy workload cheap: mutations are O(1) map updates,
// and the O(n + m) cost is paid once per threshold-many mutations.
//
// Concurrency: a Graph is safe for concurrent use. Snapshots are
// immutable once returned — readers laying out or rendering an old
// generation are never invalidated mid-run; they simply observe a stale
// generation number.
package dyngraph

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
)

// DefaultRebuildThreshold is the pending dirty-edge count past which a
// mutation batch triggers an automatic CSR rebuild. The default keeps the
// overlay small enough that overlay-aware queries stay O(1)-ish while
// amortizing the O(n + m) rebuild over thousands of mutations.
const DefaultRebuildThreshold = 4096

// Sentinel errors; the HTTP layer maps these onto status codes.
var (
	// ErrWeighted reports an attempt to make a weighted graph dynamic
	// (the incremental path is defined for unweighted graphs).
	ErrWeighted = errors.New("dyngraph: weighted graphs cannot be mutated")
	// ErrBadMutation reports an invalid mutation (out-of-range vertex,
	// self loop, non-positive vertex count).
	ErrBadMutation = errors.New("dyngraph: invalid mutation")
)

// Op is a mutation kind.
type Op uint8

const (
	// AddEdge inserts the undirected edge {U, V}. Inserting an existing
	// edge is a no-op.
	AddEdge Op = iota
	// DelEdge removes the undirected edge {U, V}. Removing a missing
	// edge is a no-op.
	DelEdge
	// AddVertices appends Count fresh isolated vertices and extends the
	// id space; new ids are assigned contiguously from the old NumV.
	AddVertices
	// DelVertex removes every edge incident to U. The id slot remains
	// (isolated) so existing coordinates and ids stay stable; ids are
	// never reused or compacted.
	DelVertex
)

// String names the op the way the HTTP mutation API spells it.
func (o Op) String() string {
	switch o {
	case AddEdge:
		return "addEdge"
	case DelEdge:
		return "delEdge"
	case AddVertices:
		return "addVertices"
	case DelVertex:
		return "delVertex"
	default:
		return "unknown"
	}
}

// Mutation is one buffered graph change. U and V are the edge endpoints
// for AddEdge/DelEdge; AddVertices uses Count; DelVertex uses U.
type Mutation struct {
	Op    Op
	U, V  int32
	Count int
}

// Options tunes a dynamic graph. The zero value gets sane defaults.
type Options struct {
	// RebuildThreshold is the pending dirty-edge count that triggers an
	// automatic rebuild at the end of an Apply batch
	// (0 = DefaultRebuildThreshold, negative = only Flush rebuilds).
	RebuildThreshold int
}

// Result summarizes one Apply batch.
type Result struct {
	// Applied counts mutations that changed state (no-ops excluded).
	Applied int
	// Pending is the dirty-edge overlay size after the batch.
	Pending int
	// NumV is the vertex-id space after the batch.
	NumV int
	// Gen is the snapshot generation after the batch.
	Gen uint64
	// Rebuilt reports whether the batch crossed the threshold and the
	// overlay was folded into a fresh CSR.
	Rebuilt bool
	// FirstNewVertex is the id of the first vertex added by the batch's
	// AddVertices ops (-1 when none were added).
	FirstNewVertex int32
}

// Graph is a mutable undirected simple graph: an immutable CSR snapshot
// plus an add/delete edge overlay. Safe for concurrent use.
type Graph struct {
	mu   sync.RWMutex
	opt  Options
	base *graph.CSR // immutable; replaced wholesale by rebuilds
	numV int        // current id space; ≥ base.NumV, never shrinks
	gen  uint64     // bumped on every rebuild

	adds map[uint64]struct{} // pending edge inserts, canonical keys
	dels map[uint64]struct{} // pending edge deletes, canonical keys
}

// key packs the undirected edge {u, v} into its canonical (min, max) form.
func key(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func unkey(k uint64) (u, v int32) {
	return int32(k >> 32), int32(uint32(k))
}

// New wraps base (which must be unweighted) as a dynamic graph at
// generation 1. base must not be mutated by the caller afterwards.
func New(base *graph.CSR, opt Options) (*Graph, error) {
	if base.Weighted() {
		return nil, ErrWeighted
	}
	if opt.RebuildThreshold == 0 {
		opt.RebuildThreshold = DefaultRebuildThreshold
	}
	return &Graph{
		opt:  opt,
		base: base,
		numV: base.NumV,
		gen:  1,
		adds: map[uint64]struct{}{},
		dels: map[uint64]struct{}{},
	}, nil
}

// baseHas reports whether the snapshot contains {u, v} (false for ids
// beyond the snapshot's vertex count).
func (d *Graph) baseHas(u, v int32) bool {
	if int(u) >= d.base.NumV || int(v) >= d.base.NumV {
		return false
	}
	return d.base.HasEdge(u, v)
}

// Validate dry-runs the batch against an id space of numV vertices that
// evolves with it, so Apply is atomic: an invalid mutation anywhere rejects
// the whole batch. It needs no Graph, so a caller can refuse a batch before
// making the graph it is meant for mutable.
func Validate(numV int, batch []Mutation) error {
	for i, m := range batch {
		switch m.Op {
		case AddEdge, DelEdge:
			if m.U < 0 || m.V < 0 || int(m.U) >= numV || int(m.V) >= numV {
				return fmt.Errorf("%w: mutation %d: edge {%d,%d} out of range [0,%d)", ErrBadMutation, i, m.U, m.V, numV)
			}
			if m.U == m.V {
				return fmt.Errorf("%w: mutation %d: self loop at %d", ErrBadMutation, i, m.U)
			}
		case AddVertices:
			if m.Count <= 0 {
				return fmt.Errorf("%w: mutation %d: addVertices count %d, want > 0", ErrBadMutation, i, m.Count)
			}
			numV += m.Count
		case DelVertex:
			if m.U < 0 || int(m.U) >= numV {
				return fmt.Errorf("%w: mutation %d: vertex %d out of range [0,%d)", ErrBadMutation, i, m.U, numV)
			}
		default:
			return fmt.Errorf("%w: mutation %d: unknown op %d", ErrBadMutation, i, m.Op)
		}
	}
	return nil
}

// Apply buffers a batch of mutations, rebuilding the snapshot when the
// dirty-edge overlay crosses the threshold. The batch is atomic: any
// invalid mutation rejects the whole batch with ErrBadMutation before
// state changes.
func (d *Graph) Apply(batch []Mutation) (Result, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := Validate(d.numV, batch); err != nil {
		return Result{}, err
	}
	res := Result{FirstNewVertex: -1}
	for _, m := range batch {
		switch m.Op {
		case AddEdge:
			if d.addEdgeLocked(m.U, m.V) {
				res.Applied++
			}
		case DelEdge:
			if d.delEdgeLocked(m.U, m.V) {
				res.Applied++
			}
		case AddVertices:
			if res.FirstNewVertex < 0 {
				res.FirstNewVertex = int32(d.numV)
			}
			d.numV += m.Count
			res.Applied++
		case DelVertex:
			res.Applied += d.delVertexLocked(m.U)
		}
	}
	if t := d.opt.RebuildThreshold; t > 0 && len(d.adds)+len(d.dels) >= t {
		d.rebuildLocked()
		res.Rebuilt = true
	}
	res.Pending = len(d.adds) + len(d.dels)
	res.NumV = d.numV
	res.Gen = d.gen
	return res, nil
}

func (d *Graph) addEdgeLocked(u, v int32) bool {
	k := key(u, v)
	if _, ok := d.dels[k]; ok {
		delete(d.dels, k)
		return true
	}
	if d.baseHas(u, v) {
		return false
	}
	if _, ok := d.adds[k]; ok {
		return false
	}
	d.adds[k] = struct{}{}
	return true
}

func (d *Graph) delEdgeLocked(u, v int32) bool {
	k := key(u, v)
	if _, ok := d.adds[k]; ok {
		delete(d.adds, k)
		return true
	}
	if !d.baseHas(u, v) {
		return false
	}
	if _, ok := d.dels[k]; ok {
		return false
	}
	d.dels[k] = struct{}{}
	return true
}

// delVertexLocked removes every current edge incident to v and returns
// how many it removed.
func (d *Graph) delVertexLocked(v int32) int {
	removed := 0
	if int(v) < d.base.NumV {
		for _, u := range d.base.Neighbors(v) {
			if d.delEdgeLocked(v, u) {
				removed++
			}
		}
	}
	// Pending inserts incident to v: collect first (deleting while
	// ranging a map is legal but collecting keeps the logic obvious).
	var incident []uint64
	for k := range d.adds {
		a, b := unkey(k)
		if a == v || b == v {
			incident = append(incident, k)
		}
	}
	for _, k := range incident {
		delete(d.adds, k)
		removed++
	}
	return removed
}

// Flush folds any pending overlay into a fresh CSR snapshot and returns
// it with its generation. With an empty overlay and an unchanged id space
// it is a cheap read.
func (d *Graph) Flush() (*graph.CSR, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.adds)+len(d.dels) > 0 || d.numV != d.base.NumV {
		d.rebuildLocked()
	}
	return d.base, d.gen
}

// Snapshot returns the last rebuilt CSR and its generation without
// forcing a rebuild; up to RebuildThreshold buffered mutations may not be
// reflected in it (Pending reports how many).
func (d *Graph) Snapshot() (*graph.CSR, uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base, d.gen
}

// Gen returns the current snapshot generation.
func (d *Graph) Gen() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gen
}

// Pending returns the dirty-edge overlay size.
func (d *Graph) Pending() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.adds) + len(d.dels)
}

// NumVertices returns the current vertex-id space (including vertices
// added since the last rebuild).
func (d *Graph) NumVertices() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.numV
}

// NumEdges returns the current undirected edge count, overlay included.
func (d *Graph) NumEdges() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base.NumEdges() + int64(len(d.adds)) - int64(len(d.dels))
}

// HasEdge reports whether {u, v} is currently an edge, overlay included.
func (d *Graph) HasEdge(u, v int32) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if u < 0 || v < 0 || int(u) >= d.numV || int(v) >= d.numV || u == v {
		return false
	}
	k := key(u, v)
	if _, ok := d.adds[k]; ok {
		return true
	}
	if _, ok := d.dels[k]; ok {
		return false
	}
	return d.baseHas(u, v)
}

// rebuildLocked folds the overlay into a fresh CSR: per-vertex sorted
// delta lists merged against the old sorted adjacency in one linear pass.
// Caller holds d.mu.
func (d *Graph) rebuildLocked() {
	n := d.numV
	old := d.base
	// Per-vertex sorted delta lists, both directions of every overlay edge.
	addList := deltaLists(d.adds)
	delList := deltaLists(d.dels)

	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		deg := int64(len(addList[int32(v)]) - len(delList[int32(v)]))
		if v < old.NumV {
			deg += old.Offsets[v+1] - old.Offsets[v]
		}
		offsets[v+1] = offsets[v] + deg
	}
	adj := make([]int32, offsets[n])
	for v := 0; v < n; v++ {
		out := adj[offsets[v]:offsets[v]:offsets[v+1]]
		var base []int32
		if v < old.NumV {
			base = old.Neighbors(int32(v))
		}
		out = mergeAdj(out, base, addList[int32(v)], delList[int32(v)])
		if int64(len(out)) != offsets[v+1]-offsets[v] {
			// Only reachable through a bookkeeping bug (an overlay entry
			// disagreeing with the snapshot); fail loudly rather than
			// serve a corrupt CSR.
			panic(fmt.Sprintf("dyngraph: vertex %d merged to %d arcs, expected %d", v, len(out), offsets[v+1]-offsets[v]))
		}
	}
	d.base = &graph.CSR{NumV: n, Offsets: offsets, Adj: adj}
	d.gen++
	clear(d.adds)
	clear(d.dels)
}

// deltaLists explodes canonical edge keys into per-vertex sorted
// neighbor lists (both directions).
func deltaLists(set map[uint64]struct{}) map[int32][]int32 {
	if len(set) == 0 {
		return nil
	}
	out := make(map[int32][]int32, len(set))
	for k := range set {
		u, v := unkey(k)
		out[u] = append(out[u], v)
		out[v] = append(out[v], u)
	}
	for _, l := range out {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	return out
}

// mergeAdj appends (base − del) ∪ add to out, keeping sorted order. base,
// add, and del are each sorted; add is disjoint from base and del ⊆ base
// by the overlay invariants.
func mergeAdj(out, base, add, del []int32) []int32 {
	ai, di := 0, 0
	for _, u := range base {
		for di < len(del) && del[di] < u {
			di++
		}
		if di < len(del) && del[di] == u {
			di++
			continue
		}
		for ai < len(add) && add[ai] < u {
			out = append(out, add[ai])
			ai++
		}
		out = append(out, u)
	}
	out = append(out, add[ai:]...)
	return out
}
