package graph_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestReadGolden pins what graph.Read builds from generated graphs written
// in either text format: a SHA-256 prefix over Offsets, Adj and Weights,
// recorded from the line-at-a-time reader and sort.Slice rows the block
// engine replaced.
func TestReadGolden(t *testing.T) {
	chungLu := gen.WithRandomWeights(gen.ChungLu(20000, 12, 2.3, 3), 1000, 4)
	for i := range chungLu.Weights {
		chungLu.Weights[i] /= 7 // decimals that take every digit %g writes
	}
	graphs := []struct {
		name string
		g    *graph.CSR
		want string
	}{
		{"kron", gen.Kron(14, 16, 1), "004216adb4dbca9a"},
		{"road", gen.Road(120, 120, 2), "f8f3aa841195b8cb"},
		{"mesh3d", gen.Mesh3D(24, 24, 24), "ab4e5b17870fd604"},
		{"chunglu_weighted", chungLu, "4ba79497858ca937"},
	}
	writers := map[string]func(io.Writer, *graph.CSR) error{
		"edges": graph.WriteEdgeList,
		"mtx":   graph.WriteMatrixMarket,
	}
	for _, tc := range graphs {
		for format, write := range writers {
			var buf bytes.Buffer
			if err := write(&buf, tc.g); err != nil {
				t.Fatal(err)
			}
			g, err := graph.Read(&buf, format, graph.BuildOptions{Weighted: tc.g.Weighted()})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, format, err)
			}
			if got := csrSum(g); got != tc.want {
				t.Errorf("%s/%s: CSR sum %s, want %s", tc.name, format, got, tc.want)
			}
		}
	}
}

// csrSum hashes a CSR's arrays in little-endian order.
func csrSum(g *graph.CSR) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, int64(g.NumV))
	binary.Write(h, binary.LittleEndian, g.Offsets)
	binary.Write(h, binary.LittleEndian, g.Adj)
	binary.Write(h, binary.LittleEndian, g.Weights)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
