package dyngraph

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

func apply(t *testing.T, g *graph.CSR, batch ...Mutation) (*graph.CSR, int) {
	t.Helper()
	next, applied, err := Apply(g, batch)
	if err != nil {
		t.Fatalf("Apply(%v): %v", batch, err)
	}
	if err := next.Validate(parallel.Live()); err != nil {
		t.Fatalf("Apply(%v) returned an invalid CSR: %v", batch, err)
	}
	return next, applied
}

// TestEdgeInsertDeleteOverlay: within a batch, inserts and deletes meet in
// the batch's add/delete sets — a duplicate is a no-op, and a delete
// cancels the insert before it (and vice versa) — and only the net change
// reaches the folded graph.
func TestEdgeInsertDeleteOverlay(t *testing.T) {
	g := gen.Grid2D(4, 4) // 16 vertices, no diagonal edges
	next, applied := apply(t, g, Mutation{Op: AddEdge, U: 0, V: 5})
	if applied != 1 || !next.HasEdge(0, 5) || !next.HasEdge(5, 0) {
		t.Fatalf("insert: applied=%d, edge present=%v", applied, next.HasEdge(0, 5))
	}
	if g.HasEdge(0, 5) {
		t.Fatal("Apply wrote its input")
	}
	// Re-inserting an edge of the graph is a no-op and changes nothing.
	if again, applied := apply(t, next, Mutation{Op: AddEdge, U: 5, V: 0}); applied != 0 || again != next {
		t.Fatalf("duplicate insert: applied=%d, same graph=%v; want 0, true", applied, again == next)
	}
	// Insert then delete in one batch: both count, neither lands.
	if same, applied := apply(t, g,
		Mutation{Op: AddEdge, U: 0, V: 5},
		Mutation{Op: AddEdge, U: 5, V: 0},
		Mutation{Op: DelEdge, U: 0, V: 5},
	); applied != 2 || same != g {
		t.Fatalf("cancel: applied=%d, same graph=%v; want 2, true", applied, same == g)
	}
	// Delete then re-insert a base edge: likewise.
	if same, applied := apply(t, g, Mutation{Op: DelEdge, U: 0, V: 1}, Mutation{Op: AddEdge, U: 1, V: 0}); applied != 2 || same != g {
		t.Fatalf("resurrect: applied=%d, same graph=%v; want 2, true", applied, same == g)
	}
	// Deleting a missing edge is a no-op.
	if same, applied := apply(t, g, Mutation{Op: DelEdge, U: 0, V: 15}); applied != 0 || same != g {
		t.Fatalf("missing delete: applied=%d, same graph=%v", applied, same == g)
	}
	if next, _ := apply(t, g, Mutation{Op: DelEdge, U: 0, V: 1}); next.HasEdge(0, 1) || next.HasEdge(1, 0) {
		t.Fatal("deleted base edge still present")
	}
}

func TestVertexAddDelete(t *testing.T) {
	g := gen.Grid2D(3, 3) // 9 vertices
	next, applied := apply(t, g,
		Mutation{Op: AddVertices, Count: 2},
		Mutation{Op: AddEdge, U: 9, V: 0},
		Mutation{Op: AddEdge, U: 9, V: 10},
		Mutation{Op: AddVertices, Count: 1},
		Mutation{Op: AddEdge, U: 11, V: 10},
	)
	// Ids are assigned contiguously from the old NumV; each addVertices op
	// counts once, whatever its Count.
	if applied != 5 || next.NumV != 12 || !next.HasEdge(9, 10) || !next.HasEdge(0, 9) || !next.HasEdge(10, 11) {
		t.Fatalf("addVertices: applied=%d n=%d", applied, next.NumV)
	}
	// Deleting vertex 9 strips both its edges; the slot stays.
	after, applied := apply(t, next, Mutation{Op: DelVertex, U: 9})
	if applied != 2 || after.NumV != 12 || after.Degree(9) != 0 || !after.HasEdge(10, 11) {
		t.Fatalf("delVertex: applied=%d n=%d deg=%d, want 2/12/0", applied, after.NumV, after.Degree(9))
	}
	// Isolated new vertices alone are a change.
	if more, applied := apply(t, g, Mutation{Op: AddVertices, Count: 3}); applied != 1 || more == g || more.NumV != 12 || more.NumEdges() != g.NumEdges() {
		t.Fatalf("isolated vertices: applied=%d n=%d m=%d", applied, more.NumV, more.NumEdges())
	}
}

// TestDelVertexDropsPendingInserts: delVertex removes the edges the same
// batch added to the vertex before it, and counts them.
func TestDelVertexDropsPendingInserts(t *testing.T) {
	g := gen.Grid2D(3, 3)
	next, applied := apply(t, g, Mutation{Op: AddEdge, U: 0, V: 4}, Mutation{Op: DelVertex, U: 4})
	// The insert {0,4}, then the batch's insert plus the four base edges of
	// the grid center (neighbors 1, 3, 5, 7).
	if applied != 1+5 {
		t.Fatalf("applied %d, want 6", applied)
	}
	if next.HasEdge(0, 4) || next.Degree(4) != 0 {
		t.Fatal("a same-batch insert survived delVertex")
	}
	// The same delVertex twice: the second finds nothing left.
	if _, applied := apply(t, g, Mutation{Op: DelVertex, U: 4}, Mutation{Op: DelVertex, U: 4}); applied != 4 {
		t.Fatalf("delVertex twice applied %d, want 4", applied)
	}
}

func TestBatchAtomicity(t *testing.T) {
	g := gen.Grid2D(3, 3)
	for _, batch := range [][]Mutation{
		{{Op: AddEdge, U: 0, V: 4}, {Op: AddEdge, U: 0, V: 99}}, // out of range
		{{Op: AddEdge, U: 0, V: 4}, {Op: AddEdge, U: 1, V: 1}},  // self loop
		{{Op: AddEdge, U: 0, V: 4}, {Op: AddVertices, Count: 0}},
		{{Op: AddEdge, U: 0, V: 4}, {Op: DelVertex, U: 9}},
		{{Op: AddEdge, U: 0, V: 4}, {Op: Op(9)}},
	} {
		next, applied, err := Apply(g, batch)
		if !errors.Is(err, ErrBadMutation) || next != nil || applied != 0 {
			t.Fatalf("Apply(%v) = %v, %d, %v; want ErrBadMutation", batch, next, applied, err)
		}
	}
	if g.HasEdge(0, 4) || g.Validate(parallel.Live()) != nil {
		t.Fatal("a rejected batch wrote its input")
	}
	// Edges may reference vertices added earlier in the same batch.
	if _, _, err := Apply(g, []Mutation{{Op: AddVertices, Count: 1}, {Op: AddEdge, U: 9, V: 0}}); err != nil {
		t.Fatalf("intra-batch new-vertex edge rejected: %v", err)
	}
}

func TestWeightedRejected(t *testing.T) {
	g := gen.Grid2D(3, 3).WithUnitWeights()
	if _, _, err := Apply(g, []Mutation{{Op: AddEdge, U: 0, V: 4}}); !errors.Is(err, ErrWeighted) {
		t.Fatalf("weighted Apply err = %v, want ErrWeighted", err)
	}
	// An invalid batch is a bad batch first, whatever the graph.
	if _, _, err := Apply(g, []Mutation{{Op: AddEdge, U: 0, V: 99}}); !errors.Is(err, ErrBadMutation) {
		t.Fatalf("invalid batch on a weighted graph err = %v, want ErrBadMutation", err)
	}
}

// TestNumEdgesTracksOverlay: the folded graph's edge count is the input's
// plus the batch's net inserts minus its net deletes.
func TestNumEdgesTracksOverlay(t *testing.T) {
	g := gen.Grid2D(4, 4)
	m0 := g.NumEdges()
	next, _ := apply(t, g, Mutation{Op: AddEdge, U: 0, V: 5}, Mutation{Op: DelEdge, U: 0, V: 1})
	if next.NumEdges() != m0 {
		t.Fatalf("NumEdges = %d, want %d (one add, one del)", next.NumEdges(), m0)
	}
	next, _ = apply(t, next, Mutation{Op: AddEdge, U: 0, V: 10}, Mutation{Op: AddEdge, U: 3, V: 12})
	if next.NumEdges() != m0+2 {
		t.Fatalf("NumEdges = %d, want %d", next.NumEdges(), m0+2)
	}
}

// BenchmarkApplyFourEdges is the fold behind a four-edge PATCH on
// Road(100²): four inserted edges touch eight rows, and the other 9 992
// rows move as a few copied runs.
func BenchmarkApplyFourEdges(b *testing.B) {
	g := gen.Road(100, 100, 1)
	batch := []Mutation{
		{Op: AddEdge, U: 0, V: 9999},
		{Op: AddEdge, U: 1234, V: 8765},
		{Op: AddEdge, U: 4321, V: 5678},
		{Op: AddEdge, U: 2500, V: 7500},
	}
	if _, applied, err := Apply(g, batch); err != nil || applied != len(batch) {
		b.Fatalf("Apply = %d applied, %v; want %d", applied, err, len(batch))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Apply(g, batch); err != nil {
			b.Fatal(err)
		}
	}
}
