package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// randomEdges generates a reproducible random edge list over n vertices.
func randomEdges(n, m int, seed int64) []Edge {
	r := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			U: int32(r.Intn(n)),
			V: int32(r.Intn(n)),
			W: float64(1 + r.Intn(9)),
		}
	}
	return edges
}

func mustFromEdges(t *testing.T, n int, edges []Edge, opt BuildOptions) *CSR {
	t.Helper()
	g, err := FromEdges(n, edges, opt)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	// Triangle plus a pendant, with a self loop and duplicates to strip.
	edges := []Edge{
		{U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 2, V: 2}, // self loop
		{U: 3, V: 0},
	}
	g := mustFromEdges(t, 4, edges, BuildOptions{KeepAllComponents: true})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumV != 4 || g.NumEdges() != 4 {
		t.Fatalf("got n=%d m=%d, want 4, 4", g.NumV, g.NumEdges())
	}
	if g.Degree(0) != 3 || g.Degree(2) != 2 || g.Degree(3) != 1 {
		t.Fatalf("unexpected degrees %d %d %d", g.Degree(0), g.Degree(2), g.Degree(3))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(1, 3) || g.HasEdge(2, 2) {
		t.Fatal("HasEdge inconsistent")
	}
}

// TestFromEdgesWithoutDuplicatesAllocatesOneAdjacency: an edge list that
// lists each edge once is packed in place, so FromEdges allocates the
// adjacency once (plus three n-sized arrays and the weighted sort
// buffers), not a second compacted copy.
// The same edges with duplicates and self loops added take the compacting
// path and must build the identical graph, with every array len == cap.
func TestFromEdgesWithoutDuplicatesAllocatesOneAdjacency(t *testing.T) {
	const n, m = 1000, 40000
	r := rand.New(rand.NewSource(3))
	seen := map[[2]int32]bool{}
	var edges []Edge
	for len(edges) < m {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || seen[[2]int32{min(u, v), max(u, v)}] {
			continue
		}
		seen[[2]int32{min(u, v), max(u, v)}] = true
		edges = append(edges, Edge{U: u, V: v, W: float64(1 + r.Intn(9))})
	}
	for _, weighted := range []bool{false, true} {
		opt := BuildOptions{Weighted: weighted, KeepAllComponents: true}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g := mustFromEdges(t, n, edges, opt)
		runtime.ReadMemStats(&after)
		perArc := 4
		if weighted {
			perArc += 8
		}
		got, bound := after.TotalAlloc-before.TotalAlloc, uint64(perArc*2*m+3*8*(n+1)+32<<10)
		t.Logf("weighted=%v: FromEdges allocated %d B; one adjacency is %d B, bound %d B", weighted, got, perArc*2*m, bound)
		if got > bound {
			t.Errorf("weighted=%v: FromEdges allocated %d B, want at most %d B", weighted, got, bound)
		}
		dup := append(slices.Clone(edges), edges[:100]...)
		dup = append(dup, Edge{U: 5, V: 5, W: 1}, Edge{U: edges[7].V, V: edges[7].U, W: edges[7].W})
		h := mustFromEdges(t, n, dup, opt)
		if !slices.Equal(g.Offsets, h.Offsets) || !slices.Equal(g.Adj, h.Adj) || !slices.Equal(g.Weights, h.Weights) {
			t.Fatalf("weighted=%v: duplicates and a self loop changed the graph", weighted)
		}
		for _, x := range []*CSR{g, h} {
			if len(x.Offsets) != cap(x.Offsets) || len(x.Adj) != cap(x.Adj) || len(x.Weights) != cap(x.Weights) {
				t.Errorf("weighted=%v: array with spare capacity: offsets %d/%d adj %d/%d weights %d/%d", weighted,
					len(x.Offsets), cap(x.Offsets), len(x.Adj), cap(x.Adj), len(x.Weights), cap(x.Weights))
			}
		}
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(3, []Edge{{U: 0, V: 3}}, BuildOptions{}); err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
	if _, err := FromEdges(-1, nil, BuildOptions{}); err == nil {
		t.Fatal("expected error for negative vertex count")
	}
	if _, err := FromEdges(3, []Edge{{U: 0, V: 1, W: -2}}, BuildOptions{Weighted: true}); err == nil {
		t.Fatal("expected error for negative weight")
	}
}

func TestFromEdgesValidateProperty(t *testing.T) {
	// Any random multigraph with loops must preprocess into a valid simple
	// symmetric CSR.
	cfg := &quick.Config{MaxCount: 50}
	err := quick.Check(func(seed int64, weighted bool) bool {
		n := 2 + int(uint64(seed)%97)
		edges := randomEdges(n, 3*n, seed)
		g, err := FromEdges(n, edges, BuildOptions{Weighted: weighted, KeepAllComponents: true})
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestWeightedMergeKeepsMaxSimilarity(t *testing.T) {
	edges := []Edge{
		{U: 0, V: 1, W: 2},
		{U: 1, V: 0, W: 7}, // duplicate with higher similarity
		{U: 0, V: 1, W: 4},
	}
	g := mustFromEdges(t, 2, edges, BuildOptions{Weighted: true})
	if g.NumEdges() != 1 {
		t.Fatalf("m = %d, want 1", g.NumEdges())
	}
	if w := g.NeighborWeights(0)[0]; w != 7 {
		t.Fatalf("merged weight = %g, want 7", w)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedDegrees(t *testing.T) {
	edges := []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}}
	g := mustFromEdges(t, 3, edges, BuildOptions{Weighted: true})
	d := g.WeightedDegrees()
	want := []float64{2, 5, 3}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("deg[%d] = %g, want %g", i, d[i], want[i])
		}
	}
	// Unweighted graphs: weighted degree equals plain degree.
	gu := g.Unweighted()
	du := gu.WeightedDegrees()
	for i := range du {
		if du[i] != float64(gu.Degree(int32(i))) {
			t.Fatalf("unweighted deg[%d] = %g", i, du[i])
		}
	}
}

func TestMaxDegree(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}}
	g := mustFromEdges(t, 4, edges, BuildOptions{})
	if md := g.MaxDegree(); md != 3 {
		t.Fatalf("MaxDegree = %d, want 3", md)
	}
	empty := &CSR{NumV: 0, Offsets: []int64{0}}
	if md := empty.MaxDegree(); md != 0 {
		t.Fatalf("empty MaxDegree = %d", md)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := mustFromEdges(t, 3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}, BuildOptions{})
	cases := map[string]func(g *CSR){
		"asymmetric":   func(g *CSR) { g.Adj[0] = 2 },
		"unsorted":     func(g *CSR) { g.Adj[1], g.Adj[2] = g.Adj[2], g.Adj[1] },
		"out-of-range": func(g *CSR) { g.Adj[0] = 99 },
		"bad offsets":  func(g *CSR) { g.Offsets[1] = 100 },
		"self loop":    func(g *CSR) { g.Adj[0] = 0 },
	}
	for name, corrupt := range cases {
		g := &CSR{
			NumV:    good.NumV,
			Offsets: append([]int64(nil), good.Offsets...),
			Adj:     append([]int32(nil), good.Adj...),
		}
		corrupt(g)
		if g.Validate() == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// validateSymmetryOracle is the symmetry check Validate made before its
// one-pass cursor walk: a binary search for the reverse of every arc. It
// assumes g passed Validate's structural checks.
func validateSymmetryOracle(g *CSR) error {
	for v := 0; v < g.NumV; v++ {
		for k := g.Offsets[v]; k < g.Offsets[v+1]; k++ {
			u := g.Adj[k]
			j, ok := g.findArc(u, int32(v))
			if !ok {
				return fmt.Errorf("graph: missing reverse arc %d->%d", u, v)
			}
			if g.Weights != nil && g.Weights[j] != g.Weights[k] {
				return fmt.Errorf("graph: asymmetric weight on edge {%d,%d}", v, u)
			}
		}
	}
	return nil
}

// csrFromRows packs sorted rows (and, when ws is non-nil, their weights).
func csrFromRows(rows [][]int32, ws [][]float64) *CSR {
	g := &CSR{NumV: len(rows), Offsets: make([]int64, len(rows)+1)}
	for v, r := range rows {
		g.Offsets[v+1] = g.Offsets[v] + int64(len(r))
		g.Adj = append(g.Adj, r...)
		if ws != nil {
			g.Weights = append(g.Weights, ws[v]...)
		}
	}
	return g
}

// symmetryKind is the part of a Validate error that names the fault, not
// the arc: the two checks may name different arcs of one fault.
func symmetryKind(err error) string {
	if err == nil {
		return "ok"
	}
	msg := err.Error()
	for _, k := range []string{"missing reverse arc", "asymmetric weight"} {
		if strings.Contains(msg, k) {
			return k
		}
	}
	return msg
}

// TestValidateSymmetryMatchesOracle: the cursor walk and the per-arc
// search reach the same verdict, and name the same fault, on every
// single-fault corruption of a weighted path-plus-chords graph.
func TestValidateSymmetryMatchesOracle(t *testing.T) {
	// 0-1-2-3-4 plus {0,2}, {1,4}, {2,4}.
	rows := [][]int32{{1, 2}, {0, 2, 4}, {0, 1, 3, 4}, {2, 4}, {1, 2, 3}}
	wts := [][]float64{{1, 5}, {1, 2, 6}, {5, 2, 3, 7}, {3, 4}, {6, 7, 4}}
	cases := []struct {
		name       string
		rows       [][]int32
		wts        [][]float64
		wantFault  string
		unweighted bool
	}{
		{name: "intact", rows: rows, wts: wts, wantFault: "ok"},
		{name: "intact unweighted", rows: rows, wantFault: "ok", unweighted: true},
		{name: "dropped reverse arc", rows: [][]int32{{1, 2}, {0, 2, 4}, {0, 1, 3, 4}, {2, 4}, {1, 3}},
			wts: [][]float64{{1, 5}, {1, 2, 6}, {5, 2, 3, 7}, {3, 4}, {6, 4}}, wantFault: "missing reverse arc"},
		{name: "dropped first reverse arc", rows: [][]int32{{2}, {0, 2, 4}, {0, 1, 3, 4}, {2, 4}, {1, 2, 3}},
			wts: [][]float64{{5}, {1, 2, 6}, {5, 2, 3, 7}, {3, 4}, {6, 7, 4}}, wantFault: "missing reverse arc"},
		{name: "reverse weight differs", rows: rows,
			wts: [][]float64{{1, 5}, {1, 2, 6}, {5, 2, 3, 7}, {3, 4}, {6, 8, 4}}, wantFault: "asymmetric weight"},
		{name: "extra arc at a row's end", rows: [][]int32{{1, 2, 3}, {0, 2, 4}, {0, 1, 3, 4}, {2, 4}, {1, 2, 3}},
			wts: [][]float64{{1, 5, 9}, {1, 2, 6}, {5, 2, 3, 7}, {3, 4}, {6, 7, 4}}, wantFault: "missing reverse arc"},
		{name: "extra arc in the last row", rows: [][]int32{{1, 2}, {0, 2, 4}, {0, 1, 3, 4}, {2, 4}, {0, 1, 2, 3}},
			wts: [][]float64{{1, 5}, {1, 2, 6}, {5, 2, 3, 7}, {3, 4}, {9, 6, 7, 4}}, wantFault: "missing reverse arc"},
		{name: "extra arc mid-row", rows: [][]int32{{1, 2}, {0, 2, 3, 4}, {0, 1, 3, 4}, {2, 4}, {1, 2, 3}},
			wts: [][]float64{{1, 5}, {1, 2, 9, 6}, {5, 2, 3, 7}, {3, 4}, {6, 7, 4}}, wantFault: "missing reverse arc"},
		{name: "arc moved to another row", rows: [][]int32{{1, 2}, {0, 2, 4}, {0, 1, 3, 4}, {2, 4}, {0, 2, 3}},
			wts: [][]float64{{1, 5}, {1, 2, 6}, {5, 2, 3, 7}, {3, 4}, {6, 7, 4}}, wantFault: "missing reverse arc"},
	}
	for _, c := range cases {
		ws := c.wts
		if c.unweighted {
			ws = nil
		}
		g := csrFromRows(c.rows, ws)
		got, want := symmetryKind(g.Validate()), symmetryKind(validateSymmetryOracle(g))
		if got != want || got != c.wantFault {
			t.Errorf("%s: Validate %q (%v), oracle %q, want %q", c.name, got, g.Validate(), want, c.wantFault)
		}
	}
}

// FuzzValidateMatchesOracle builds graphs of up to 8 vertices whose rows
// are bitmasks (symmetrized, then one arc toggled, when the flag bit is
// set) with weights from a small alphabet, and checks the cursor walk
// accepts exactly what the per-arc search accepts.
func FuzzValidateMatchesOracle(f *testing.F) {
	f.Add([]byte{0x85, 0x06, 0x05, 0x03, 0x00, 0x01, 0x02, 0x03, 0x04})
	f.Add([]byte{0x84, 0x0e, 0x01, 0x01, 0x01, 0x10, 0x00})
	f.Add([]byte{0x03, 0x06, 0x05, 0x03})
	f.Add([]byte{0xc7, 0xfe, 0xfd, 0xfb, 0xf7, 0xef, 0xdf, 0xbf, 0x7f, 0x21, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]&7) + 1
		var adj [8][8]bool
		for v := 0; v < n; v++ {
			if 1+v < len(data) {
				for u := 0; u < n; u++ {
					adj[v][u] = u != v && data[1+v]>>u&1 == 1
				}
			}
		}
		if data[0]&0x80 != 0 {
			for v := 0; v < n; v++ {
				for u := 0; u < n; u++ {
					adj[v][u] = adj[v][u] || adj[u][v]
				}
			}
			if b := data[len(data)-1]; data[0]&0x40 != 0 {
				if v, u := int(b&7)%n, int(b>>3&7)%n; v != u {
					adj[v][u] = !adj[v][u]
				}
			}
		}
		weighted := data[0]&0x20 != 0
		rows, wts := make([][]int32, n), make([][]float64, n)
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if adj[v][u] {
					rows[v] = append(rows[v], int32(u))
					lo, hi := min(u, v), max(u, v)
					w := float64(1 + (lo*8+hi)%3)
					if b := 1 + n + len(wts[v]) + v; weighted && b < len(data) && data[b]&0x80 != 0 {
						w += float64(v) // only this direction's copy moves
					}
					wts[v] = append(wts[v], w)
				}
			}
		}
		if !weighted {
			wts = nil
		}
		g := csrFromRows(rows, wts)
		got, want := g.Validate(), validateSymmetryOracle(g)
		if (got == nil) != (want == nil) {
			t.Fatalf("Validate %v, oracle %v on rows %v weights %v", got, want, rows, wts)
		}
	})
}

func TestWithUnitWeights(t *testing.T) {
	g := mustFromEdges(t, 3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}, BuildOptions{})
	wg := g.WithUnitWeights()
	if !wg.Weighted() {
		t.Fatal("expected weighted view")
	}
	for _, w := range wg.Weights {
		if w != 1 {
			t.Fatalf("unit weight = %g", w)
		}
	}
	if err := wg.Validate(); err != nil {
		t.Fatal(err)
	}
}
