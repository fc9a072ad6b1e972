// Package catalog is the multi-graph registry behind the serving layer:
// one server instance holds many named graphs (loaded from disk at
// startup or uploaded over HTTP) and the async job engine lays them out
// on demand. The catalog enforces a byte budget with LRU eviction so an
// upload-heavy deployment cannot grow the heap without bound; graphs the
// operator marks pinned (the startup graph) are never evicted.
package catalog

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
)

// DefaultBudget is the aggregate graph-byte budget when New is given 0:
// roomy enough for several million-edge graphs without risking the host.
const DefaultBudget int64 = 2 << 30

// Sentinel errors; the HTTP layer maps these onto status codes.
var (
	// ErrNotFound reports an unknown graph name (HTTP 404).
	ErrNotFound = errors.New("catalog: graph not found")
	// ErrExists reports a name collision on registration (HTTP 409).
	ErrExists = errors.New("catalog: graph already registered")
	// ErrTooLarge reports a graph bigger than the whole budget (HTTP 413).
	ErrTooLarge = errors.New("catalog: graph exceeds the catalog byte budget")
	// ErrPinned reports an attempt to remove a pinned graph (HTTP 409).
	ErrPinned = errors.New("catalog: graph is pinned")
	// ErrBadName reports a name unusable in URLs and filenames (HTTP 400).
	ErrBadName = errors.New("catalog: invalid graph name")
)

// validName keeps names usable as URL path segments and result filenames.
var validName = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// Info is the externally visible description of one catalog entry.
type Info struct {
	Name     string    `json:"name"`     // unique catalog key (URL-safe)
	Vertices int       `json:"vertices"` // vertex count
	Edges    int64     `json:"edges"`    // undirected edge count
	Bytes    int64     `json:"bytes"`    // in-memory CSR footprint
	Weighted bool      `json:"weighted"` // whether edges carry weights
	Source   string    `json:"source"`   // where the graph came from
	Pinned   bool      `json:"pinned"`   // pinned entries never evict
	Added    time.Time `json:"added"`    // insertion time
	// Dynamic marks an entry whose graph Replace has swapped (a PATCH that
	// changed it).
	Dynamic bool `json:"dynamic"`
	// Generation counts content changes of this entry: it starts at 1 and
	// Replace bumps it. Cache layers key derived artifacts (render tiles,
	// layouts) by (name, generation), so every replacement invalidates
	// them all.
	Generation uint64 `json:"generation"`
}

type entry struct {
	info     Info
	g        *graph.CSR
	lastUsed time.Time // for LRU eviction; guarded by the catalog mutex
}

// Catalog is a byte-budgeted registry of named graphs, safe for
// concurrent use.
type Catalog struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[string]*entry
	clock   int64 // logical clock so same-nanosecond touches still order
	// onChange, when set, hears the name of every entry that was just
	// added, removed, evicted or had its generation moved. See OnChange.
	onChange func(name string)
}

// New returns an empty catalog with the given aggregate byte budget
// (0 = DefaultBudget, negative = unbounded).
func New(budget int64) *Catalog {
	if budget == 0 {
		budget = DefaultBudget
	}
	return &Catalog{budget: budget, entries: map[string]*entry{}}
}

// OnChange registers the catalog's one change hook: fn is called with an
// entry's name after the entry is added, removed, evicted, or has its
// generation moved (Replace) — everything a cache keyed by
// (name, generation) must hear about. It runs under the catalog lock, after
// the change is in place, so a Generation or Get that follows the call
// sees the new state; fn must not block or call back into the catalog.
// Set it before the catalog is shared.
func (c *Catalog) OnChange(fn func(name string)) { c.onChange = fn }

// changed reports name to the change hook. Caller holds c.mu.
func (c *Catalog) changed(name string) {
	if c.onChange != nil {
		c.onChange(name)
	}
}

// GraphBytes estimates the resident size of a CSR: offsets, adjacency,
// and weights. Vertex-count metadata is noise by comparison.
func GraphBytes(g *graph.CSR) int64 {
	b := int64(len(g.Offsets))*8 + int64(len(g.Adj))*4
	if g.Weights != nil {
		b += int64(len(g.Weights)) * 8
	}
	return b
}

// Add registers g under name, evicting least-recently-used unpinned
// entries if the budget is exceeded. source is a free-form provenance
// string ("upload", a file path, …).
func (c *Catalog) Add(name string, g *graph.CSR, source string) error {
	return c.add(name, g, source, false)
}

// AddPinned registers g under name and protects it from eviction and
// removal (the single-graph startup mode).
func (c *Catalog) AddPinned(name string, g *graph.CSR, source string) error {
	return c.add(name, g, source, true)
}

func (c *Catalog) add(name string, g *graph.CSR, source string, pinned bool) error {
	// "." and ".." pass the character class but are hostile as URL path
	// segments and filenames; reject them explicitly.
	if !validName.MatchString(name) || name == "." || name == ".." {
		return fmt.Errorf("%w: %q (want %s)", ErrBadName, name, validName)
	}
	gb := GraphBytes(g)
	if c.budget > 0 && gb > c.budget {
		return fmt.Errorf("%w: %d bytes against a %d budget", ErrTooLarge, gb, c.budget)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	c.clock++
	c.entries[name] = &entry{
		info: Info{
			Name:       name,
			Vertices:   g.NumV,
			Edges:      g.NumEdges(),
			Bytes:      gb,
			Weighted:   g.Weighted(),
			Source:     source,
			Pinned:     pinned,
			Added:      time.Now(),
			Generation: 1,
		},
		g:        g,
		lastUsed: time.Unix(0, c.clock),
	}
	c.bytes += gb
	c.changed(name)
	c.evictLocked(name)
	return nil
}

// evictLocked drops least-recently-used unpinned entries (never the one
// named keep) until the catalog fits its budget again.
func (c *Catalog) evictLocked(keep string) {
	for c.budget > 0 && c.bytes > c.budget {
		var victim string
		var oldest time.Time
		for name, e := range c.entries {
			if e.info.Pinned || name == keep {
				continue
			}
			if victim == "" || e.lastUsed.Before(oldest) {
				victim, oldest = name, e.lastUsed
			}
		}
		if victim == "" {
			return // only pinned entries (and the newcomer) remain
		}
		c.bytes -= c.entries[victim].info.Bytes
		delete(c.entries, victim)
		c.changed(victim)
	}
}

// Get returns the graph registered under name and marks it
// most-recently-used.
func (c *Catalog) Get(name string) (*graph.CSR, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, false
	}
	c.clock++
	e.lastUsed = time.Unix(0, c.clock)
	return e.g, true
}

// Generation returns the named entry's content generation.
func (c *Catalog) Generation(name string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return 0, false
	}
	return e.info.Generation, true
}

// Replace installs g as the named entry's graph — what a mutation batch
// that changed the graph does. The counts and byte accounting follow g, the
// entry is marked dynamic, its generation moves by one, the change hook
// hears of it, and the budget is re-enforced without ever evicting name.
func (c *Catalog) Replace(name string, g *graph.CSR) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	gb := GraphBytes(g)
	c.bytes += gb - e.info.Bytes
	e.g = g
	e.info.Vertices, e.info.Edges, e.info.Bytes = g.NumV, g.NumEdges(), gb
	e.info.Weighted = g.Weighted()
	e.info.Dynamic = true
	e.info.Generation++
	c.changed(name)
	c.evictLocked(name)
	return nil
}

// Remove deletes the named graph. Pinned graphs cannot be removed.
func (c *Catalog) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if e.info.Pinned {
		return fmt.Errorf("%w: %q", ErrPinned, name)
	}
	c.bytes -= e.info.Bytes
	delete(c.entries, name)
	c.changed(name)
	return nil
}

// List returns every entry's Info, sorted by name.
func (c *Catalog) List() []Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Info, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered graphs.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the aggregate resident graph bytes.
func (c *Catalog) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
