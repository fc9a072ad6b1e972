package dyngraph

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// edgeKey mirrors the package's canonical packing for the model below.
func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// model is the trivially-correct reference: a vertex count plus a set of
// canonical edges, mutated with the same semantics Apply promises.
type model struct {
	numV  int
	edges map[uint64]struct{}
}

func (m *model) apply(mu Mutation) {
	switch mu.Op {
	case AddEdge:
		m.edges[edgeKey(mu.U, mu.V)] = struct{}{}
	case DelEdge:
		delete(m.edges, edgeKey(mu.U, mu.V))
	case AddVertices:
		m.numV += mu.Count
	case DelVertex:
		for k := range m.edges {
			if int32(k>>32) == mu.U || int32(uint32(k)) == mu.U {
				delete(m.edges, k)
			}
		}
	}
}

func (m *model) csr(t testing.TB) *graph.CSR {
	edges := make([]graph.Edge, 0, len(m.edges))
	for k := range m.edges {
		edges = append(edges, graph.Edge{U: int32(k >> 32), V: int32(uint32(k))})
	}
	g, err := graph.FromEdges(m.numV, edges, graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		t.Fatalf("reference FromEdges: %v", err)
	}
	return g
}

// decodeMutation turns 5 fuzz bytes into one mutation against a graph
// that currently has numV vertices. Returns ok=false for undecodable
// slots so the fuzzer can skip them without aborting the sequence.
func decodeMutation(b []byte, numV int) (Mutation, bool) {
	if numV < 2 {
		return Mutation{}, false
	}
	u := int32(uint32(b[1])<<8|uint32(b[2])) % int32(numV)
	v := int32(uint32(b[3])<<8|uint32(b[4])) % int32(numV)
	switch b[0] % 5 {
	case 0, 1:
		if u == v {
			return Mutation{}, false
		}
		return Mutation{Op: AddEdge, U: u, V: v}, true
	case 2:
		if u == v {
			return Mutation{}, false
		}
		return Mutation{Op: DelEdge, U: u, V: v}, true
	case 3:
		return Mutation{Op: AddVertices, Count: 1 + int(b[1]%3)}, true
	default:
		return Mutation{Op: DelVertex, U: u}, true
	}
}

// FuzzApplyEquivalence chains Apply over fuzz-sized batches of one
// mutation sequence and drives the reference model with the same sequence.
// Every step's CSR must be valid and structurally identical to a
// from-scratch build of the model, the input CSR must come back untouched,
// and a batch that changes nothing must return its input pointer.
func FuzzApplyEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 2, 0, 1, 0, 2, 3, 1, 0, 0, 0})
	f.Add([]byte{4, 0, 3, 0, 0, 0, 0, 5, 0, 1, 1, 0, 2, 0, 5})
	f.Add(make([]byte, 60))
	// Grid2D(3, 4)'s boundary rows: one batch inserts {0, 11} and deletes
	// {0, 1} and {10, 11}, so the fold's first and last rows are merged
	// and no untouched run precedes or follows them.
	f.Add([]byte{2, 0, 0, 0, 0, 11, 2, 0, 0, 0, 1, 2, 0, 10, 0, 11})
	// Appended vertices interleaved with touched ones: 2 appended (12,
	// 13), {3, 13} inserted, 2 more (14, 15), {15, 7} inserted, vertex 5
	// cleared; 12 and 14 stay empty between touched rows.
	f.Add([]byte{4, 3, 1, 0, 0, 0, 0, 0, 3, 0, 13, 3, 1, 0, 0, 0, 0, 0, 15, 0, 7, 4, 0, 5, 0, 0})
	// A batch that changes nothing: an edge of the grid re-inserted, a
	// missing edge deleted, and {2, 9} inserted and deleted again.
	f.Add([]byte{3, 0, 0, 0, 0, 1, 2, 0, 0, 0, 11, 0, 0, 2, 0, 9, 2, 0, 9, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			t.Skip()
		}
		batchSize := int(data[0]%8) + 1
		data = data[1:]

		g := gen.Grid2D(3, 4) // 12 vertices
		ref := &model{numV: g.NumV, edges: map[uint64]struct{}{}}
		for v := int32(0); v < int32(g.NumV); v++ {
			for _, w := range g.Neighbors(v) {
				ref.edges[edgeKey(v, w)] = struct{}{}
			}
		}

		var batch []Mutation
		step := func() {
			before := clone(g)
			next, _, err := Apply(g, batch)
			if err != nil {
				t.Fatalf("Apply(%v): %v", batch, err)
			}
			if !reflect.DeepEqual(g, before) {
				t.Fatalf("Apply(%v) wrote its input", batch)
			}
			if err := next.Validate(parallel.Live()); err != nil {
				t.Fatalf("Apply(%v) returned an invalid CSR: %v", batch, err)
			}
			want := ref.csr(t)
			if next.NumV != want.NumV || !reflect.DeepEqual(next.Offsets, want.Offsets) || !reflect.DeepEqual(next.Adj, want.Adj) {
				t.Fatalf("after %v:\n got %v %v\nwant %v %v", batch, next.Offsets, next.Adj, want.Offsets, want.Adj)
			}
			if unchanged := reflect.DeepEqual(next, before); unchanged != (next == g) {
				t.Fatalf("Apply(%v): unchanged=%v but same pointer=%v", batch, unchanged, next == g)
			}
			g, batch = next, batch[:0]
		}
		for off := 0; off+5 <= len(data); off += 5 {
			mu, ok := decodeMutation(data[off:off+5], ref.numV)
			if !ok {
				continue
			}
			// Track the model eagerly so later ops in the same batch
			// decode against the post-mutation vertex count, matching
			// Apply's intra-batch semantics.
			ref.apply(mu)
			if batch = append(batch, mu); len(batch) == batchSize {
				step()
			}
		}
		if len(batch) > 0 {
			step()
		}
	})
}

// clone deep-copies a CSR, so a test can tell whether Apply wrote it. An
// empty adjacency stays empty, not nil: reflect.DeepEqual tells the two
// apart, and an edgeless graph is a fold result like any other.
func clone(g *graph.CSR) *graph.CSR {
	return &graph.CSR{NumV: g.NumV, Offsets: slices.Clone(g.Offsets), Adj: slices.Clone(g.Adj)}
}
