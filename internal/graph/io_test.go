package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/parallel"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% another comment
0 1
1 2 3.5

2 0
`
	n, edges, err := ReadEdgeList(strings.NewReader(in), parallel.Live())
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(edges) != 3 {
		t.Fatalf("n=%d edges=%d", n, len(edges))
	}
	if edges[1].W != 3.5 {
		t.Fatalf("weight = %g, want 3.5", edges[1].W)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 x\n", "-1 2\n", "0 1 zzz\n"} {
		if _, _, err := ReadEdgeList(strings.NewReader(in), parallel.Live()); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
	// Non-finite weights parse, and only a weighted build refuses them.
	for _, in := range []string{"0 1 NaN\n", "1 2 1\n0 1 +Inf\n", "0 1 -inf\n"} {
		if _, err := Read(strings.NewReader(in), "edges", BuildOptions{}); err != nil {
			t.Errorf("unweighted %q: %v", in, err)
		}
		_, err := Read(strings.NewReader(in), "edges", BuildOptions{Weighted: true})
		if err == nil || !strings.Contains(err.Error(), "non-finite weight") || !strings.Contains(err.Error(), "{0,1}") {
			t.Errorf("weighted %q: error %v, want a non-finite weight on edge {0,1}", in, err)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := mustFromEdges(t, 6, randomEdges(6, 12, 3), BuildOptions{Weighted: true, KeepAllComponents: true})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	n, edges, err := ReadEdgeList(&buf, parallel.Live())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := FromEdges(maxInt(n, g.NumV), edges, BuildOptions{Weighted: true, KeepAllComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip edges %d, want %d", g2.NumEdges(), g.NumEdges())
	}
	for v := int32(0); int(v) < g.NumV; v++ {
		for k, u := range g.Neighbors(v) {
			if !g2.HasEdge(v, u) {
				t.Fatalf("edge {%d,%d} lost", v, u)
			}
			_ = k
		}
	}
}

func TestReadMatrixMarket(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% SuiteSparse-style comment
3 3 3
1 2 1.5
2 3 -2.0
3 1 4.0
`
	n, edges, err := ReadMatrixMarket(strings.NewReader(in), parallel.Live())
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(edges) != 3 {
		t.Fatalf("n=%d edges=%d", n, len(edges))
	}
	if edges[0].U != 0 || edges[0].V != 1 {
		t.Fatalf("1-based conversion wrong: %+v", edges[0])
	}
	if edges[1].W != 2.0 {
		t.Fatalf("negative values should be folded to magnitude, got %g", edges[1].W)
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 1
1 2
`
	_, edges, err := ReadMatrixMarket(strings.NewReader(in), parallel.Live())
	if err != nil {
		t.Fatal(err)
	}
	if edges[0].W != 1 {
		t.Fatalf("pattern weight = %g, want 1", edges[0].W)
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"not a banner\n1 1 0\n",
		"%%MatrixMarket matrix array real general\n2 2 4\n",
		"%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n9 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 -1\n1 2 1\n",
	}
	for _, in := range cases {
		if _, _, err := ReadMatrixMarket(strings.NewReader(in), parallel.Live()); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := mustFromEdges(t, 50, randomEdges(50, 200, 11), BuildOptions{Weighted: weighted})
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadBinary(&buf, parallel.Live())
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumV != g.NumV || g2.NumEdges() != g.NumEdges() || g2.Weighted() != weighted {
			t.Fatalf("round trip mismatch: n %d/%d m %d/%d", g2.NumV, g.NumV, g2.NumEdges(), g.NumEdges())
		}
		for i := range g.Adj {
			if g.Adj[i] != g2.Adj[i] {
				t.Fatal("adjacency mismatch")
			}
			if weighted && g.Weights[i] != g2.Weights[i] {
				t.Fatal("weights mismatch")
			}
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("short")), parallel.Live()); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 64)), parallel.Live()); err == nil {
		t.Fatal("zero header accepted")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := mustFromEdges(t, 20, randomEdges(20, 60, 17), BuildOptions{Weighted: weighted, KeepAllComponents: true})
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, g); err != nil {
			t.Fatal(err)
		}
		n, edges, err := ReadMatrixMarket(&buf, parallel.Live())
		if err != nil {
			t.Fatal(err)
		}
		g2, err := FromEdges(n, edges, BuildOptions{Weighted: weighted, KeepAllComponents: true})
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumV != g.NumV || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("weighted=%v: round trip n=%d/%d m=%d/%d", weighted, g2.NumV, g.NumV, g2.NumEdges(), g.NumEdges())
		}
		for v := int32(0); int(v) < g.NumV; v++ {
			for k, u := range g.Neighbors(v) {
				if !g2.HasEdge(v, u) {
					t.Fatalf("edge {%d,%d} lost", v, u)
				}
				if weighted {
					for j, u2 := range g2.Neighbors(v) {
						if u2 == u && g2.NeighborWeights(v)[j] != g.NeighborWeights(v)[k] {
							t.Fatalf("weight changed on {%d,%d}", v, u)
						}
					}
				}
			}
		}
	}
}

// failWriter errors after a fixed number of bytes, exercising writer error
// paths.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, fmt.Errorf("injected write failure")
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, fmt.Errorf("injected write failure")
	}
	return n, nil
}

func TestWritersPropagateErrors(t *testing.T) {
	g := mustFromEdges(t, 50, randomEdges(50, 200, 3), BuildOptions{Weighted: true})
	writers := map[string]func(w io.Writer) error{
		"edgelist": func(w io.Writer) error { return WriteEdgeList(w, g) },
		"mtx":      func(w io.Writer) error { return WriteMatrixMarket(w, g) },
		"binary":   func(w io.Writer) error { return WriteBinary(w, g) },
	}
	for name, write := range writers {
		for _, budget := range []int{0, 10, 100} {
			if err := write(&failWriter{left: budget}); err == nil {
				t.Errorf("%s: write succeeded with %d-byte budget", name, budget)
			}
		}
	}
}

// TestReadRefusesVertexCountOutOfProportion: a text input whose vertex
// count (an edge list's largest id + 1, a MatrixMarket size line) exceeds
// its byte count is refused with ErrTooManyVertices before FromEdges
// allocates per vertex; a count equal to the byte count still builds.
// The ids here are small enough that a reader without the check would
// only allocate a few MB.
func TestReadRefusesVertexCountOutOfProportion(t *testing.T) {
	refused := map[string]string{
		"edges":   "0 1\n1 1000000\n",
		"mtx":     "%%MatrixMarket matrix coordinate pattern general\n1000000 1000000 1\n1 2\n",
		"mtx-eof": "%%MatrixMarket matrix coordinate pattern general\n500 500 0\n",
	}
	for name, body := range refused {
		format := strings.TrimSuffix(name, "-eof")
		if _, err := Read(strings.NewReader(body), format, BuildOptions{KeepAllComponents: true}); !errors.Is(err, ErrTooManyVertices) {
			t.Errorf("%s: err = %v, want ErrTooManyVertices", name, err)
		}
	}
	// Eight bytes naming vertex 9 (n = 10) are refused; naming vertex 7
	// (n = 8), they build.
	if _, err := Read(strings.NewReader("0 1\n1 9\n"), "edges", BuildOptions{KeepAllComponents: true}); !errors.Is(err, ErrTooManyVertices) {
		t.Errorf("10 vertices from 8 bytes: err = %v, want ErrTooManyVertices", err)
	}
	g, err := Read(strings.NewReader("0 1\n1 7\n"), "edges", BuildOptions{KeepAllComponents: true})
	if err != nil || g.NumV != 8 {
		t.Fatalf("8 vertices from 8 bytes: g = %v, err = %v; want 8 vertices", g, err)
	}
}
