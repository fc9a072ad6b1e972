package graph

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/parallel"
)

// goodBinary serializes a small valid 6×6 grid and returns the bytes
// plus the header geometry needed to corrupt specific regions.
func goodBinary(t *testing.T) (raw []byte, numV, numArcs int) {
	t.Helper()
	const side = 6
	var edges []Edge
	id := func(r, c int) int32 { return int32(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				edges = append(edges, Edge{U: id(r, c), V: id(r, c+1)})
			}
			if r+1 < side {
				edges = append(edges, Edge{U: id(r, c), V: id(r+1, c)})
			}
		}
	}
	g, err := FromEdges(side*side, edges, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), g.NumV, len(g.Adj)
}

// TestReadBinaryFailurePaths corrupts a valid serialization in targeted
// ways and checks each failure is caught with a diagnosable error rather
// than a panic, hang, or silently wrong graph.
func TestReadBinaryFailurePaths(t *testing.T) {
	raw, numV, numArcs := goodBinary(t)
	const headerLen = 32 // magic|version, flags, numV, numArcs — 4×uint64
	offsetsEnd := headerLen + 8*(numV+1)
	adjEnd := offsetsEnd + 4*numArcs
	if adjEnd != len(raw) {
		t.Fatalf("geometry mismatch: adjEnd %d, len %d", adjEnd, len(raw))
	}

	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		wantErr string
	}{
		{
			name:    "empty input",
			corrupt: func(b []byte) []byte { return nil },
			wantErr: "reading binary header",
		},
		{
			name:    "truncated header",
			corrupt: func(b []byte) []byte { return b[:headerLen/2] },
			wantErr: "reading binary header",
		},
		{
			name: "bad magic",
			corrupt: func(b []byte) []byte {
				b[7] ^= 0xff // high byte of the magic word
				return b
			},
			wantErr: "bad binary magic",
		},
		{
			name: "unsupported version",
			corrupt: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[0:], binVersion+7)
				return b
			},
			wantErr: "unsupported binary version",
		},
		{
			name: "absurd vertex count",
			corrupt: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[16:], 1<<40)
				return b
			},
			wantErr: "corrupt binary sizes",
		},
		{
			name: "absurd arc count",
			corrupt: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[24:], 1<<40)
				return b
			},
			wantErr: "corrupt binary sizes",
		},
		{
			name:    "truncated offsets",
			corrupt: func(b []byte) []byte { return b[:headerLen+8*(numV/2)] },
			wantErr: "reading offsets",
		},
		{
			name:    "truncated adjacency",
			corrupt: func(b []byte) []byte { return b[:offsetsEnd+4*(numArcs/2)] },
			wantErr: "reading adjacency",
		},
		{
			name: "weighted flag without weight payload",
			corrupt: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[8:], 1)
				return b
			},
			wantErr: "reading weights",
		},
		{
			name: "offsets not monotone",
			corrupt: func(b []byte) []byte {
				// Swap offsets[1] down below offsets[0]'s successor range
				// by writing a huge value then a small one.
				binary.LittleEndian.PutUint64(b[headerLen+8:], uint64(numArcs))
				return b
			},
			wantErr: "failed validation",
		},
		{
			name: "final offset disagrees with arc count",
			corrupt: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[headerLen+8*numV:], uint64(numArcs-1))
				return b
			},
			wantErr: "failed validation",
		},
		{
			name: "neighbor out of range",
			corrupt: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[offsetsEnd:], uint32(numV+5))
				return b
			},
			wantErr: "failed validation",
		},
		{
			name: "self loop",
			corrupt: func(b []byte) []byte {
				// Vertex 0's first neighbor becomes vertex 0.
				binary.LittleEndian.PutUint32(b[offsetsEnd:], 0)
				return b
			},
			wantErr: "failed validation",
		},
		{
			name: "broken symmetry",
			corrupt: func(b []byte) []byte {
				// Rewrite vertex 0's neighbor to a far vertex that has no
				// reverse arc back (grid vertex 0 links to 1 and 6).
				binary.LittleEndian.PutUint32(b[offsetsEnd:], 3)
				return b
			},
			wantErr: "failed validation",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.corrupt(append([]byte(nil), raw...))
			g, err := ReadBinary(bytes.NewReader(b), parallel.Live())
			if err == nil {
				t.Fatalf("ReadBinary accepted corrupt input, returned %v", g)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}

	// The uncorrupted bytes still round-trip: the helpers above did not
	// damage the shared base slice.
	g, err := ReadBinary(bytes.NewReader(raw), parallel.Live())
	if err != nil {
		t.Fatalf("pristine input rejected: %v", err)
	}
	if g.NumV != numV || len(g.Adj) != numArcs {
		t.Fatalf("round trip: n=%d arcs=%d, want %d/%d", g.NumV, len(g.Adj), numV, numArcs)
	}
}

// TestReadBinaryTrailingGarbageIgnored documents that extra bytes after a
// complete record are not read: callers framing multiple records must
// track lengths themselves.
func TestReadBinaryTrailingGarbageIgnored(t *testing.T) {
	raw, numV, _ := goodBinary(t)
	raw = append(raw, 0xde, 0xad, 0xbe, 0xef)
	g, err := ReadBinary(bytes.NewReader(raw), parallel.Live())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumV != numV {
		t.Fatalf("NumV = %d, want %d", g.NumV, numV)
	}
}

// TestReadBinaryForgedSizeAllocatesNothing: a header claiming 2^33 arcs
// followed by the offsets and nothing else, read from an input that knows
// its length, is refused before the adjacency is allocated; from an
// unsized stream it costs one bounded chunk before EOF.
func TestReadBinaryForgedSizeAllocatesNothing(t *testing.T) {
	raw, numV, _ := goodBinary(t)
	forged := append([]byte(nil), raw[:32+8*(numV+1)]...)
	binary.LittleEndian.PutUint64(forged[24:], 1<<33)
	for _, c := range []struct {
		name string
		r    func() io.Reader
	}{
		{"sized", func() io.Reader { return bytes.NewReader(forged) }},
		{"unsized", func() io.Reader { return struct{ io.Reader }{bytes.NewReader(forged)} }},
	} {
		var before, after runtime.MemStats
		r := c.r()
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(r, parallel.Live())
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "reading adjacency") {
			t.Fatalf("%s: error = %v, want a short read of the adjacency", c.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("%s: refusing a forged header allocated %d bytes", c.name, got)
		}
	}
}
