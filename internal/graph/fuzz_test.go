package graph

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/parallel"
)

// Fuzz targets: the three parsers must never panic on arbitrary input —
// they either return a graph that passes validation or an error.

func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("0 1 2.5\n# comment\n")
	f.Add("")
	f.Add("x y\n")
	f.Add("999999999999999999 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		n, edges, err := ReadEdgeList(strings.NewReader(input), parallel.Live())
		if err != nil {
			return
		}
		for _, e := range edges {
			if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
				t.Fatalf("parsed edge {%d,%d} out of range [0,%d)", e.U, e.V, n)
			}
		}
	})
}

func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n1 2 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 1\n")
	f.Add("garbage")
	f.Add("")
	// Size lines whose entry count once sized an allocation up front.
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 -1\n1 2\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 99999999999999\n1 2\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 200000000\n1 2\n")
	f.Fuzz(func(t *testing.T, input string) {
		n, edges, err := ReadMatrixMarket(strings.NewReader(input), parallel.Live())
		if err != nil {
			return
		}
		// The reservation follows the input, at most twice its line count.
		if c := cap(edges); c > 2*(strings.Count(input, "\n")+1) {
			t.Fatalf("room for %d entries after a %d-byte input", c, len(input))
		}
		for _, e := range edges {
			if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
				t.Fatalf("parsed entry {%d,%d} out of range [0,%d)", e.U, e.V, n)
			}
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	// Seed with a valid serialization and corruptions of it.
	g := mustBuildFuzz(f)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	if len(valid) > 20 {
		tampered := append([]byte(nil), valid...)
		tampered[18] ^= 0xff
		f.Add(tampered)
		f.Add(valid[:len(valid)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("not a graph at all, just some text padding 0123456789"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data), parallel.Live())
		// The same bytes as an unsized stream take the chunked path and
		// must reach the same verdict and the same graph, bit for bit.
		streamed, serr := ReadBinary(struct{ io.Reader }{bytes.NewReader(data)}, parallel.Live())
		if (err == nil) != (serr == nil) {
			t.Fatalf("sized read error %v, unsized read error %v", err, serr)
		}
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if WriteBinary(&a, g) != nil || WriteBinary(&b, streamed) != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("sized and unsized reads built different graphs")
		}
		// Anything accepted must be structurally valid, and symmetric by
		// the per-arc search Validate's cursor walk replaced.
		if err := g.Validate(parallel.Live()); err != nil {
			t.Fatalf("ReadBinary accepted invalid graph: %v", err)
		}
		if err := validateSymmetryOracle(g); err != nil {
			t.Fatalf("ReadBinary accepted an asymmetric graph: %v", err)
		}
	})
}

func mustBuildFuzz(f *testing.F) *CSR {
	f.Helper()
	g, err := FromEdges(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}, BuildOptions{KeepAllComponents: true})
	if err != nil {
		f.Fatal(err)
	}
	return g
}
