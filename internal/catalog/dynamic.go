package catalog

import (
	"fmt"

	"repro/internal/dyngraph"
	"repro/internal/graph"
)

// ErrWeighted reports an attempt to promote a weighted graph to a mutable
// entry (HTTP 409); the mutation subsystem is unweighted-only.
var ErrWeighted = dyngraph.ErrWeighted

// Generation returns the named entry's content generation. Generations
// start at 1 and grow monotonically under Touch, Promote, and Refresh;
// cache layers that key artifacts by (name, generation) are therefore
// invalidated by every mutation path, present and future.
func (c *Catalog) Generation(name string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return 0, false
	}
	return e.info.Generation, true
}

// Touch bumps the named entry's generation without changing its graph —
// the hook for any code path that alters what a graph's derived artifacts
// should look like (mutation, re-upload in place, external invalidation).
// It returns the new generation.
func (c *Catalog) Touch(name string) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.info.Generation++
	c.changed(name)
	return e.info.Generation, nil
}

// Promote converts the named static entry into a mutable one backed by a
// dyngraph.Graph and returns it. Promoting an already-dynamic entry
// returns the existing handle (opt is ignored then), so concurrent
// mutators race harmlessly. Weighted entries cannot be promoted.
// Promotion itself bumps the generation: derived artifacts may now go
// stale at any time.
func (c *Catalog) Promote(name string, opt dyngraph.Options) (*dyngraph.Graph, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if e.dyn != nil {
		return e.dyn, nil
	}
	d, err := dyngraph.New(e.g, opt)
	if err != nil {
		return nil, err
	}
	e.dyn = d
	e.info.Dynamic = true
	e.info.Generation++
	c.changed(name)
	return d, nil
}

// Dynamic returns the named entry's mutable graph, or ok=false if the
// entry does not exist or has not been promoted.
func (c *Catalog) Dynamic(name string) (*dyngraph.Graph, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok || e.dyn == nil {
		return nil, false
	}
	return e.dyn, true
}

// Refresh folds the named dynamic entry's buffered mutations into a new
// CSR snapshot and installs it as the entry's graph: vertex/edge counts
// and the byte accounting are updated, the generation is bumped, and the
// budget is re-enforced (the refreshed entry itself is never the
// eviction victim). Subsequent Get calls return the new snapshot. The
// returned generation is the entry's — not the dyngraph's — and is what
// cache keys should carry.
func (c *Catalog) Refresh(name string) (*graph.CSR, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if e.dyn == nil {
		return nil, 0, fmt.Errorf("%w: %q is not dynamic", ErrNotFound, name)
	}
	snap, _ := e.dyn.Flush()
	if snap != e.g {
		gb := GraphBytes(snap)
		c.bytes += gb - e.info.Bytes
		e.g = snap
		e.info.Bytes = gb
		e.info.Vertices = snap.NumV
		e.info.Edges = snap.NumEdges()
		e.info.Generation++
		c.changed(name)
		c.evictLocked(name)
	}
	return e.g, e.info.Generation, nil
}
