package graph_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// TestReadBinaryFileAllocatesCSROnce loads a Kron(16, 16) binary CSR
// (≈ 7.6 MB) from a file, whose size graph.Read learns from Stat: each
// array is allocated once at its final size, so the load allocates at
// most 1.3× the CSR's own bytes. Growing the arrays by append, behind
// two bufio layers, allocated 5.4× them.
func TestReadBinaryFileAllocatesCSROnce(t *testing.T) {
	g := gen.Kron(16, 16, 1)
	path := filepath.Join(t.TempDir(), "kron.bin")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(out, g); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	csrBytes := 8*len(g.Offsets) + 4*len(g.Adj)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := graph.Read(f, "bin", graph.BuildOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumV != g.NumV || !reflect.DeepEqual(got.Offsets, g.Offsets) || !reflect.DeepEqual(got.Adj, g.Adj) {
		t.Fatal("the loaded CSR differs from the one written")
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(csrBytes)
	t.Logf("CSR %d bytes; graph.Read allocated %d bytes (%.2f×)", csrBytes, after.TotalAlloc-before.TotalAlloc, ratio)
	if ratio > 1.3 {
		t.Fatalf("graph.Read allocated %.2f× the CSR's %d bytes, want ≤ 1.3×", ratio, csrBytes)
	}
}

// TestReadEdgesAllocatesTheEdgeArrayOnce reads a 3.1 MB edge list of
// Kron(14, 24)'s largest component from a file, whose size ReadEdges
// learns from Stat: the text is read into one buffer and parsed as one
// block, so the read allocates the text and its final edge array and
// nothing that grows with either (two 2 MiB blocks, each growing the edge
// array, allocated 10.6 MB).
func TestReadEdgesAllocatesTheEdgeArrayOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes slices.Grow allocate a second edge array")
	}
	g := graph.LargestComponent(gen.Kron(14, 24, 1))
	path := filepath.Join(t.TempDir(), "kron.edges")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(out, g); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, edges, err := graph.ReadEdges(f, "edges", parallel.FixedBudget(2))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(edges)) != g.NumEdges() {
		t.Fatalf("read %d edges, want %d", len(edges), g.NumEdges())
	}
	want := fi.Size() + 16*int64(len(edges))
	got := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d-byte text, %d edges; ReadEdges allocated %d bytes (%.3f× text + edges)", fi.Size(), len(edges), got, float64(got)/float64(want))
	if got > want+64<<10 {
		t.Fatalf("ReadEdges allocated %d bytes, want ≤ the text and its edges (%d) + 64 KiB", got, want)
	}
}

// raceEnabled is set by race_test.go when this test binary is race-built.
var raceEnabled bool

// TestWriteBinaryAllocatesTheFileOnce: one WriteBinary of Road(100²) into
// an empty bytes.Buffer grows the buffer once to the encoded size and
// encodes through one 4 KB chunk, so it allocates at most 1.1× the
// 176 KB file (a 1 MiB bufio.Writer made it ≈ 7×).
func TestWriteBinaryAllocatesTheFileOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation doubles bytes.Buffer.Grow's allocation")
	}
	g := gen.Road(100, 100, 1)
	const runs = 5
	var size int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		size = buf.Len()
	}
	runtime.ReadMemStats(&after)
	perWrite := (after.TotalAlloc - before.TotalAlloc) / runs
	ratio := float64(perWrite) / float64(size)
	t.Logf("%d-byte file; WriteBinary allocated %d bytes (%.3f×)", size, perWrite, ratio)
	if ratio > 1.1 {
		t.Fatalf("WriteBinary into a bytes.Buffer allocated %.2f× the %d-byte file, want ≤ 1.1×", ratio, size)
	}
}
