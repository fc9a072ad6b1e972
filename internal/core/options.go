// Package core implements the paper's primary contribution: ParHDE, the
// shared-memory parallel High-Dimensional Embedding graph-layout algorithm
// (ICPP'20 Algorithm 3), together with the closely related PHDE and
// PivotMDS parallelizations (§3.2), the weighted-graph extension (§3.3),
// the prior-work baseline it is evaluated against (§4.2), and the §4.5
// extensions: zoomed neighborhood layout and plain-orthogonalization
// eigen-projection. Driving a layout to the true eigenvectors (§4.5.3) is
// eigen.LOBPCG seeded with it.
package core

import (
	"repro/internal/ortho"
	"repro/internal/pivot"
	"repro/internal/workspace"
)

// DefaultSubspace is the default subspace dimension s. The paper uses 10
// for timing runs and notes 50 is a common choice in HDE.
const DefaultSubspace = 10

// Options configures a ParHDE run.
type Options struct {
	// Subspace is s, the number of pivots / BFS distance vectors.
	Subspace int
	// Dims is the layout dimensionality p (2 by default; the paper fixes
	// p=2 but the code supports p ≤ kept-columns).
	Dims int
	// Ortho selects Modified (default) or Classical Gram-Schmidt for the
	// DOrtho phase (Table 7).
	Ortho ortho.Method
	// PlainOrtho switches D-orthogonalization to plain orthogonalization,
	// approximating Laplacian rather than degree-normalized eigenvectors
	// (§4.5.1).
	PlainOrtho bool
	// Pivots selects k-centers (default) or random pivot selection
	// (Table 6).
	Pivots pivot.Strategy
	// Seed determines the randomly-chosen start vertex and any random
	// pivots; runs are deterministic for a fixed seed.
	Seed uint64
	// Workers is the worker budget for every parallel kernel of the run.
	// It is captured once at layout start — ≤ 0 snapshots GOMAXPROCS at
	// that moment — and threaded through all phases, so a GOMAXPROCS
	// change mid-layout can never re-partition running kernels or
	// desynchronize worker-indexed scratch. Because every reduction runs
	// over the fixed linalg row tiling, the coordinates are bitwise
	// identical for every value of Workers.
	Workers int
	// Delta is the Δ-stepping bucket width for weighted graphs; ≤ 0 uses
	// the suggestion heuristic. Ignored for unweighted graphs.
	Delta float64
	// Workspace supplies pooled scratch for the run's large buffers
	// (BFS frontiers and the distance column, the DOrtho column store, the
	// TripleProd panels, the output coordinates). nil allocates fresh
	// buffers per run. With a workspace the steady state performs no
	// O(n)-sized allocations, and results are bit-identical to a
	// fresh-allocation run; the returned Layout aliases workspace storage
	// and is valid only until the workspace's next run (Clone to retain).
	Workspace *workspace.Workspace
	// Basis, from NewBasis, is the subspace of the cold layout of an
	// earlier version of the graph. While few edges and vertices differ
	// from that version (DefaultMaxPriorDelta), the run skips the
	// BFS, DOrtho and TripleProd phases and solves the basis's pencil
	// updated exactly for the difference (basis.go). Weighted graphs,
	// fewer vertices than the basis graph, options that draw a different
	// cold layout and a stale basis of a connected graph run cold;
	// Report.Warm records which path ran.
	Basis *Basis
}

// withDefaults normalizes zero values.
func (o Options) withDefaults() Options {
	if o.Subspace <= 0 {
		o.Subspace = DefaultSubspace
	}
	if o.Dims <= 0 {
		o.Dims = 2
	}
	return o
}

// layoutKey is o without its run attachments (workspace, worker budget,
// basis): the options that decide a cold layout's bits.
func (o Options) layoutKey() Options {
	o.Workspace, o.Workers, o.Basis = nil, 0, nil
	return o.withDefaults()
}
