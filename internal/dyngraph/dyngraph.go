// Package dyngraph applies mutation batches to graphs. The batch pipeline
// assumes immutable CSR inputs everywhere — BFS runners, the workspace
// pool, the render cache, and the job engine all key off a graph pointer
// that never changes under them — so a mutation never edits a graph: Apply
// folds a batch (edge insert/delete, vertex add/remove) into a fresh CSR
// and leaves its input untouched. The catalog installs the result in place
// of the old graph and moves the entry's generation, which invalidates
// anything derived from the older topology.
//
// The fold copies the old CSR run by run and merges only the rows the
// batch touches against their sorted delta lists — O(n + m + Δ log Δ),
// with the O(m) part one copy per untouched run — instead of re-running
// the full graph.Builder sort/dedupe pipeline.
package dyngraph

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
	return arc(u, v)
}

func unkey(k uint64) (u, v int32) {
	return tail(k), head(k)
}

// arc packs the arc from t to h so that packed arcs sort by tail, then
// head; tail and head unpack it.
func arc(t, h int32) uint64 { return uint64(uint32(t))<<32 | uint64(uint32(h)) }

func tail(a uint64) int32 { return int32(a >> 32) }

func head(a uint64) int32 { return int32(uint32(a)) }

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

// fold builds the CSR the delta describes. The changed edges become one
// sorted arc list per kind, both directions of each edge, so the vertices
// they touch come out in ascending order: each run of untouched vertices
// between two touched ones moves in one copy of g's adjacency (its
// offsets are g's plus the run's shift), and only a touched vertex's row
// is merged against its delta lists.
func (d *delta) fold() *graph.CSR {
	n, old := d.numV, d.g
	add, del := arcs(d.adds), arcs(d.dels)
	offsets := make([]int64, n+1)
	adj := make([]int32, len(old.Adj)+len(add)-len(del))
	next := 0 // first vertex whose row is not written yet
	for len(add) > 0 || len(del) > 0 {
		v := int32(math.MaxInt32)
		if len(add) > 0 {
			v = tail(add[0])
		}
		if len(del) > 0 {
			v = min(v, tail(del[0]))
		}
		copyRun(offsets, adj, old, next, int(v))
		var addV, delV []uint64
		addV, add = splitRun(add, v)
		delV, del = splitRun(del, v)
		var base []int32
		if int(v) < old.NumV {
			base = old.Neighbors(v)
		}
		want := int64(len(base) + len(addV) - len(delV))
		o := offsets[v]
		if out := mergeAdj(adj[o:o:o+want], base, addV, delV); int64(len(out)) != want {
			// Only reachable through a bookkeeping bug (a delta entry
			// disagreeing with g); fail loudly rather than serve a
			// corrupt CSR.
			panic(fmt.Sprintf("dyngraph: vertex %d merged to %d arcs, expected %d", v, len(out), want))
		}
		offsets[v+1] = o + want
		next = int(v) + 1
	}
	copyRun(offsets, adj, old, next, n)
	return &graph.CSR{NumV: n, Offsets: offsets, Adj: adj}
}

// copyRun writes the rows of the untouched vertices [lo, hi): g's move in
// one copy, shifted by the arcs the touched vertices before lo gained or
// lost, and the ones the batch appends are empty.
func copyRun(offsets []int64, adj []int32, old *graph.CSR, lo, hi int) {
	if mid := min(hi, old.NumV); lo < mid {
		shift := offsets[lo] - old.Offsets[lo]
		copy(adj[offsets[lo]:], old.Adj[old.Offsets[lo]:old.Offsets[mid]])
		for v := lo; v < mid; v++ {
			offsets[v+1] = old.Offsets[v+1] + shift
		}
		lo = mid
	}
	for v := lo; v < hi; v++ {
		offsets[v+1] = offsets[v]
	}
}

// arcs explodes canonical edge keys into both arcs of each edge, packed
// as arc packs them and sorted, so each vertex's delta list is one run.
func arcs(set map[uint64]struct{}) []uint64 {
	out := make([]uint64, 0, 2*len(set))
	for k := range set {
		u, v := unkey(k)
		out = append(out, k, arc(v, u))
	}
	slices.Sort(out)
	return out
}

// splitRun splits the sorted arcs into those leaving v, which lead them,
// and the rest.
func splitRun(arcs []uint64, v int32) (run, rest []uint64) {
	i := 0
	for i < len(arcs) && tail(arcs[i]) == v {
		i++
	}
	return arcs[:i], arcs[i:]
}

// mergeAdj appends (base − del) ∪ add to out, keeping sorted order. base
// is sorted; add and del are one vertex's sorted arcs, compared by head;
// add is disjoint from base and del ⊆ base by the delta's invariants.
func mergeAdj(out, base []int32, add, del []uint64) []int32 {
	ai, di := 0, 0
	for _, u := range base {
		for di < len(del) && head(del[di]) < u {
			di++
		}
		if di < len(del) && head(del[di]) == u {
			di++
			continue
		}
		for ai < len(add) && head(add[ai]) < u {
			out = append(out, head(add[ai]))
			ai++
		}
		out = append(out, u)
	}
	for _, a := range add[ai:] {
		out = append(out, head(a))
	}
	return out
}
