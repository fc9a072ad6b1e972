package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/parallel"
)

// Binary CSR serialization: a compact on-disk format so large synthetic
// graphs can be generated once and reused across benchmark runs, the way
// the paper reuses its preprocessed SuiteSparse inputs.
//
// Layout (little endian):
//
//	magic   uint32  'PHDE' (0x45444850)
//	version uint32  1
//	flags   uint32  bit0 = weighted
//	numV    uint64
//	numArcs uint64
//	offsets [numV+1] uint64
//	adj     [numArcs] uint32
//	weights [numArcs] float64   (only when weighted)
const (
	binMagic   = 0x45444850
	binVersion = 1
)

// WriteBinary serializes g in the binary CSR format. The header and each
// array are encoded a chunk at a time into one 4 KB buffer and written
// in bulk; a *bytes.Buffer destination is grown to the encoded size
// first, so it allocates once.
func WriteBinary(w io.Writer, g *CSR) error {
	var flags int64
	size := 32 + 8*len(g.Offsets) + 4*len(g.Adj)
	if g.Weights != nil {
		flags, size = 1, size+8*len(g.Weights)
	}
	if b, ok := w.(*bytes.Buffer); ok {
		b.Grow(size)
	}
	buf := make([]byte, min(size, 4<<10))
	hdr := []int64{binMagic<<32 | binVersion, flags, int64(g.NumV), int64(len(g.Adj))}
	if err := writeArray(w, buf, hdr, 8, encodeI64); err != nil {
		return err
	}
	if err := writeArray(w, buf, g.Offsets, 8, encodeI64); err != nil {
		return err
	}
	if err := writeArray(w, buf, g.Adj, 4, encodeI32); err != nil {
		return err
	}
	return writeArray(w, buf, g.Weights, 8, encodeF64)
}

// writeArray writes src as little-endian elements of size bytes each,
// encoded into buf as many at a time as it holds.
func writeArray[T any](w io.Writer, buf []byte, src []T, size int, encode func(dst []byte, src []T)) error {
	per := len(buf) / size
	for len(src) > 0 {
		k := min(len(src), per)
		encode(buf, src[:k])
		if _, err := w.Write(buf[:size*k]); err != nil {
			return err
		}
		src = src[k:]
	}
	return nil
}

// ReadBinary deserializes a graph written by WriteBinary and validates its
// structural invariants, on bud's workers, before returning it. When r
// knows how many bytes it has left (an in-memory reader, or a regular
// *os.File), the header's sizes are checked against that count and each
// array is allocated once; an unsized stream's arrays grow a bounded chunk
// at a time, so a forged size field costs at most reading to EOF rather
// than a giant up-front allocation.
func ReadBinary(r io.Reader, bud parallel.Budget) (*CSR, error) {
	var raw [32]byte
	if _, err := io.ReadFull(r, raw[:]); err != nil {
		return nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	var hdr [4]uint64
	for i := range hdr {
		hdr[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	if hdr[0]>>32 != binMagic {
		return nil, fmt.Errorf("graph: bad binary magic %#x", hdr[0]>>32)
	}
	if uint32(hdr[0]) != binVersion {
		return nil, fmt.Errorf("graph: unsupported binary version %d", uint32(hdr[0]))
	}
	weighted := hdr[1]&1 != 0
	numV := int64(hdr[2])
	numArcs := int64(hdr[3])
	if numV < 0 || numArcs < 0 || numV > 1<<31 || numArcs > 1<<33 {
		return nil, fmt.Errorf("graph: corrupt binary sizes (n=%d arcs=%d)", hdr[2], hdr[3])
	}
	avail := remaining(r)
	g := &CSR{NumV: int(numV)}
	var err error
	if g.Offsets, err = readArray(r, numV+1, 8, &avail, decodeI64); err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	if g.Adj, err = readArray(r, numArcs, 4, &avail, decodeI32); err != nil {
		return nil, fmt.Errorf("graph: reading adjacency: %w", err)
	}
	if weighted {
		if g.Weights, err = readArray(r, numArcs, 8, &avail, decodeF64); err != nil {
			return nil, fmt.Errorf("graph: reading weights: %w", err)
		}
	}
	if err := g.Validate(bud); err != nil {
		return nil, fmt.Errorf("graph: binary input failed validation: %w", err)
	}
	return g, nil
}

// remaining returns the number of bytes r has left to read when r can
// tell — a bytes or strings reader, or a regular file from its current
// offset, also behind ReadEdges' byte counter — and -1 otherwise.
func remaining(r io.Reader) int64 {
	switch r := r.(type) {
	case *countingReader:
		return remaining(r.r)
	case interface{ Len() int }:
		return int64(r.Len())
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return fi.Size() - off
	}
	return -1
}

// chunkEntries bounds each read, and each allocation step of an unsized
// stream's arrays.
const chunkEntries = 1 << 16

// readArray reads count little-endian elements of size bytes each,
// decoded a chunk at a time. With *avail ≥ 0 bytes known to be left, an
// array that does not fit is refused before anything is allocated, and
// one that fits is allocated once; with *avail < 0 the array grows as
// chunks arrive.
func readArray[T any](r io.Reader, count, size int64, avail *int64, decode func(dst []T, src []byte)) ([]T, error) {
	chunk := min(count, chunkEntries)
	capacity := chunk
	if *avail >= 0 {
		if count*size > *avail {
			return nil, io.ErrUnexpectedEOF
		}
		*avail -= count * size
		capacity = count
	}
	out := make([]T, 0, capacity)
	buf := make([]byte, size*chunk)
	for int64(len(out)) < count {
		want := min(count-int64(len(out)), chunkEntries)
		if _, err := io.ReadFull(r, buf[:size*want]); err != nil {
			return nil, err
		}
		k := len(out)
		out = slices.Grow(out, int(want))[:k+int(want)]
		decode(out[k:], buf)
	}
	return out, nil
}

func decodeI64(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func decodeI32(dst []int32, src []byte) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

func decodeF64(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func encodeI64(dst []byte, src []int64) {
	for i, x := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(x))
	}
}

func encodeI32(dst []byte, src []int32) {
	for i, x := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(x))
	}
}

func encodeF64(dst []byte, src []float64) {
	for i, x := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}
