// Package workspace provides reusable, size-checked scratch memory for the
// layout pipeline's hot path. A steady-state ParHDE run touches three
// large buffer families — the BFS frontier/queue scratch, hop vectors and
// the distance column it streams into DOrtho, the DOrtho kept-column store
// behind S, and the row-major copy of S the TripleProd walk gathers from —
// and without reuse every queued layout job re-pays those O(n·s) allocations
// and the GC traffic they induce, exactly the unbatched memory waste
// BatchLayout attributes to shared-memory layout codes. A Workspace owns
// one instance of every buffer; each job-engine worker owns one Workspace.
//
// Ownership contract: a Workspace serves one layout run at a time. The
// run's outputs that alias workspace storage (the layout coordinates and
// the orthogonalization result) are valid only until the workspace's next
// run; callers that retain results across runs must deep-copy them first
// (core.Layout.Clone). Results computed through a workspace are
// bit-identical to a fresh-allocation run with the same options, for any
// worker budget: every reduction arena here is sized by the fixed
// problem-shape tiling (linalg.ReduceBlocks), never by the worker count,
// so a GOMAXPROCS change between or during runs cannot leave an arena
// short or change any sum's combine order.
package workspace

import (
	"repro/internal/eigen"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/pivot"
)

// Workspace holds every reusable scratch buffer of one ParHDE run. The
// zero value from New is empty; Reshape sizes it for a (n, s) problem and
// is idempotent for a same-shaped sequence of runs, so a job-engine
// worker that owns one Workspace and reshapes it per job allocates only
// when the graph shape actually changes.
type Workspace struct {
	// Pivot is the BFS-phase scratch: traversal frontiers/queues, the
	// per-pivot hop vector, the k-centers min-distance vector and the
	// widened column each traversal streams into DOrtho.
	Pivot *pivot.Scratch
	// Deg caches the weighted-degree vector diag(D) between runs.
	Deg []float64
	// B backs an n×s distance matrix for a caller that materializes one
	// (DistView). ParHDE never does, so Reshape leaves it alone.
	B *linalg.Dense
	// Ortho is the DOrtho packed kept-column store, work vector, and the
	// reduction-partials buffers reused across every inner product.
	Ortho *ortho.Scratch
	// SRM is the n·s row-major copy of S that the TripleProd walk gathers
	// neighbours' rows from (one edge-list pass advances all s columns);
	// the projection reads it afterwards.
	SRM []float64
	// P backs an n×s product L·S. ParHDE never writes it — its TripleProd
	// walk consumes P a chunk at a time — only the benchmark's staged
	// replay, which still runs L·S and SᵀP as two passes, does.
	P []float64
	// Z backs the s×s projected matrix Sᵀ(LS).
	Z []float64
	// Eigen is the k×k eigensolve's storage: the scaled projected matrix,
	// its diagonal scaling, and the eigenvectors the axes are read from.
	Eigen *eigen.Scratch
	// GemmPartials is the per-tile panel arena of the deterministic AᵀB
	// reduction, sized by linalg.ReduceBlocks(n) — a function of n only,
	// so no worker-count change can desynchronize it from the kernel's
	// tile grid.
	GemmPartials []float64
	// Pack is the per-worker packed-chunk arena of the cache-resident
	// dense kernels (the TripleProd walk's P chunks, packed AᵀB). The
	// kernels size it themselves from the worker count they snapshot at
	// entry, so it carries across budget changes; it only grows.
	Pack *linalg.PackArena
	// Coords backs the n×p output layout. The Layout returned from a
	// workspace-backed run aliases it; Clone before the next run if
	// retained.
	Coords []float64
}

// New returns an empty workspace; the first Reshape sizes it.
func New() *Workspace {
	return &Workspace{}
}

// Reshape grows the workspace to serve an n-vertex, s-pivot, p-dimension
// run. Buffers already large enough are kept as-is (capacity is never
// shed), so reshaping between same-shaped jobs performs no allocations.
func (ws *Workspace) Reshape(n, s, p int) {
	if ws.Pivot == nil {
		ws.Pivot = pivot.NewScratch(n)
	} else {
		ws.Pivot.Ensure(n)
	}
	if ws.Ortho == nil {
		ws.Ortho = ortho.NewScratch(n, s)
	} else {
		ws.Ortho.Ensure(n, s)
	}
	ws.SRM = growFloat(ws.SRM, n*s)
	ws.P = growFloat(ws.P, n*s)
	ws.Z = growFloat(ws.Z, s*s)
	if ws.Eigen == nil {
		ws.Eigen = &eigen.Scratch{}
	}
	ws.Eigen.Ensure(s)
	ws.GemmPartials = growFloat(ws.GemmPartials, linalg.ReduceBlocks(n)*s*s)
	if ws.Pack == nil {
		ws.Pack = &linalg.PackArena{}
	}
	ws.Coords = growFloat(ws.Coords, n*p)
}

// DistView returns an n×cols distance-matrix view over B's storage,
// allocating B on the first call and whenever it is too small.
func (ws *Workspace) DistView(n, cols int) *linalg.Dense {
	if ws.B == nil || ws.B.Rows != n || ws.B.Cols < cols {
		ws.B = linalg.NewDense(n, cols)
	}
	return linalg.ViewDense(ws.B.Data, n, cols)
}

// growFloat returns buf resliced to n elements, reallocating only when
// capacity is short.
func growFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
