// Package dyngraph applies mutation batches to graphs. The batch pipeline
// assumes immutable CSR inputs everywhere — BFS runners, the workspace
// pool, the render cache, and the job engine all key off a graph pointer
// that never changes under them — so a mutation never edits a graph: Apply
// folds a batch (edge insert/delete, vertex add/remove) into a fresh CSR
// and leaves its input untouched. The catalog installs the result in place
// of the old graph and moves the entry's generation, which invalidates
// anything derived from the older topology.
//
// The fold merges the old CSR with per-vertex sorted delta lists in one
// linear pass — O(n + m + Δ log Δ) — instead of re-running the full
// graph.Builder sort/dedupe pipeline.
package dyngraph

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Sentinel errors; the HTTP layer maps these onto status codes.
var (
	// ErrWeighted reports an attempt to mutate a weighted graph (the
	// incremental path is defined for unweighted graphs).
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

// Mutation is one graph change. U and V are the edge endpoints for
// AddEdge/DelEdge; AddVertices uses Count; DelVertex uses U.
type Mutation struct {
	Op    Op
	U, V  int32
	Count int
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

// Apply returns g with batch applied and the number of mutations that
// changed something (no-ops excluded; an addVertices op counts once). The
// batch is atomic: an invalid mutation anywhere rejects all of it with
// ErrBadMutation, and a valid batch for a weighted g is refused with
// ErrWeighted. g is never written; when the batch changes nothing — every
// op a no-op, or an insert cancelled by a delete — Apply returns g itself.
func Apply(g *graph.CSR, batch []Mutation) (*graph.CSR, int, error) {
	if err := validate(g.NumV, batch); err != nil {
		return nil, 0, err
	}
	if g.Weighted() {
		return nil, 0, ErrWeighted
	}
	d := delta{g: g, numV: g.NumV, adds: map[uint64]struct{}{}, dels: map[uint64]struct{}{}}
	applied := 0
	for _, m := range batch {
		switch m.Op {
		case AddEdge:
			if d.addEdge(m.U, m.V) {
				applied++
			}
		case DelEdge:
			if d.delEdge(m.U, m.V) {
				applied++
			}
		case AddVertices:
			d.numV += m.Count
			applied++
		case DelVertex:
			applied += d.delVertex(m.U)
		}
	}
	if len(d.adds)+len(d.dels) == 0 && d.numV == g.NumV {
		return g, applied, nil
	}
	return d.fold(), applied, nil
}

// validate dry-runs the batch against an id space of numV vertices that
// evolves with it, so Apply is atomic.
func validate(numV int, batch []Mutation) error {
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

// delta is one batch's net change to g: the id space it grows to, edges
// to insert (none in g) and edges to remove (all in g), as canonical keys.
type delta struct {
	g          *graph.CSR
	numV       int
	adds, dels map[uint64]struct{}
}

// has reports whether g contains {u, v} (false for ids beyond g).
func (d *delta) has(u, v int32) bool {
	return int(u) < d.g.NumV && int(v) < d.g.NumV && d.g.HasEdge(u, v)
}

func (d *delta) addEdge(u, v int32) bool {
	k := key(u, v)
	if _, ok := d.dels[k]; ok {
		delete(d.dels, k)
		return true
	}
	if _, ok := d.adds[k]; ok || d.has(u, v) {
		return false
	}
	d.adds[k] = struct{}{}
	return true
}

func (d *delta) delEdge(u, v int32) bool {
	k := key(u, v)
	if _, ok := d.adds[k]; ok {
		delete(d.adds, k)
		return true
	}
	if _, ok := d.dels[k]; ok || !d.has(u, v) {
		return false
	}
	d.dels[k] = struct{}{}
	return true
}

// delVertex removes every current edge incident to v — g's and those the
// batch added before it — and returns how many it removed.
func (d *delta) delVertex(v int32) int {
	removed := 0
	if int(v) < d.g.NumV {
		for _, u := range d.g.Neighbors(v) {
			if d.delEdge(v, u) {
				removed++
			}
		}
	}
	for k := range d.adds {
		if a, b := unkey(k); a == v || b == v {
			delete(d.adds, k)
			removed++
		}
	}
	return removed
}

// fold builds the CSR the delta describes: per-vertex sorted delta lists
// merged against g's sorted adjacency in one linear pass.
func (d *delta) fold() *graph.CSR {
	n, old := d.numV, d.g
	// Per-vertex sorted delta lists, both directions of every changed edge.
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
			// Only reachable through a bookkeeping bug (a delta entry
			// disagreeing with g); fail loudly rather than serve a
			// corrupt CSR.
			panic(fmt.Sprintf("dyngraph: vertex %d merged to %d arcs, expected %d", v, len(out), offsets[v+1]-offsets[v]))
		}
	}
	return &graph.CSR{NumV: n, Offsets: offsets, Adj: adj}
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
// by the delta's invariants.
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
