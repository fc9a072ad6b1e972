package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// openAll replays path through Open and returns what it visited.
func openAll(t *testing.T, path string, skip func(byte) bool) (*Journal, []Frame) {
	t.Helper()
	var got []Frame
	j, err := Open(path, skip, func(f Frame) { got = append(got, f) })
	if err != nil {
		t.Fatal(err)
	}
	return j, got
}

func payloadOf(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 10+300*i) }

// writeFrames appends n frames keyed k0, k1, … (payloads of growing size)
// and returns the file size after each.
func writeFrames(t *testing.T, path string, n int) []int64 {
	t.Helper()
	j, got := openAll(t, path, nil)
	if len(got) != 0 {
		t.Fatalf("fresh journal replayed %d frames", len(got))
	}
	var ends []int64
	for i := 0; i < n; i++ {
		p := payloadOf(i)
		if err := j.Append(byte('A'+i), fmt.Sprintf("k%d", i), func(b []byte) ([]byte, error) { return append(b, p...), nil }); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, j.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return ends
}

func checkFrames(t *testing.T, got []Frame, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("replayed %d frames, want %d", len(got), n)
	}
	for i, f := range got {
		if f.Kind != byte('A'+i) || f.Key != fmt.Sprintf("k%d", i) || !bytes.Equal(f.Payload, payloadOf(i)) {
			t.Fatalf("frame %d = kind %c key %q payload %d bytes", i, f.Kind, f.Key, len(f.Payload))
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	ends := writeFrames(t, path, 4)
	j, got := openAll(t, path, nil)
	defer j.Close()
	checkFrames(t, got, 4)
	if j.Size() != ends[3] {
		t.Fatalf("Size = %d, want %d", j.Size(), ends[3])
	}
	// An empty payload and an empty key are frames like any other.
	if err := j.Append('z', "", nil); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got = openAll(t, path, nil)
	if last := got[len(got)-1]; len(got) != 5 || last.Kind != 'z' || last.Key != "" || last.Payload == nil || len(last.Payload) != 0 {
		t.Fatalf("empty frame came back as %+v (of %d)", last, len(got))
	}
}

// TestTornTailTruncatedAtEveryOffset is the recovery contract byte by
// byte: cut the file anywhere inside the last frame and reopening replays
// exactly the frames before it, truncates the file to their end, and the
// next append lands cleanly on that boundary.
func TestTornTailTruncatedAtEveryOffset(t *testing.T) {
	const n = 4
	master := filepath.Join(t.TempDir(), "master")
	ends := writeFrames(t, master, n)
	whole, err := os.ReadFile(master)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "j")
	for cut := ends[n-2]; cut < ends[n-1]; cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, got := openAll(t, path, nil)
		checkFrames(t, got, n-1)
		if st, _ := os.Stat(path); st.Size() != ends[n-2] || j.Size() != ends[n-2] {
			t.Fatalf("cut at %d: file is %d bytes, Size %d, want both %d", cut, st.Size(), j.Size(), ends[n-2])
		}
		p := payloadOf(n - 1)
		if err := j.Append(byte('A'+n-1), fmt.Sprintf("k%d", n-1), func(b []byte) ([]byte, error) { return append(b, p...), nil }); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, got = openAll(t, path, nil)
		j.Close()
		checkFrames(t, got, n)
	}
}

// TestChecksumFailureEndsThePrefix flips one byte at a time: damage inside
// frame i leaves exactly frames 0..i-1, whether i is the tail or not, and
// a skipping scan still verifies the tail frame.
func TestChecksumFailureEndsThePrefix(t *testing.T) {
	const n = 3
	path := filepath.Join(t.TempDir(), "j")
	ends := writeFrames(t, path, n)
	whole, _ := os.ReadFile(path)
	frameOf := func(off int64) int {
		for i, e := range ends {
			if off < e {
				return i
			}
		}
		return n
	}
	for off := int64(0); off < int64(len(whole)); off += 7 {
		damaged := append([]byte(nil), whole...)
		damaged[off] ^= 0x40
		count := 0
		Scan(bytes.NewReader(damaged), int64(len(damaged)), nil, func(Frame) { count++ })
		if want := frameOf(off); count != want {
			t.Fatalf("byte %d (frame %d) flipped: %d frames replayed", off, want, count)
		}
	}
	damaged := append([]byte(nil), whole...)
	damaged[len(damaged)-1] ^= 1
	count := 0
	end := Scan(bytes.NewReader(damaged), int64(len(damaged)), func(byte) bool { return true }, func(Frame) { count++ })
	if count != n-1 || end != ends[n-2] {
		t.Fatalf("skipping scan over a damaged tail: %d frames, prefix %d; want %d, %d", count, end, n-1, ends[n-2])
	}
}

// countingReader counts the bytes a scan asks for.
type countingReader struct {
	r io.ReaderAt
	n int64
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	c.n += int64(len(p))
	return c.r.ReadAt(p, off)
}

// TestScanSkipsPayloads: a skipping scan reads a bounded number of bytes
// per frame however large the payloads are (the last frame excepted).
func TestScanSkipsPayloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openAll(t, path, nil)
	big := make([]byte, 64<<10)
	const n = 50
	for i := 0; i < n; i++ {
		kind := byte('b')
		if i%5 == 0 {
			kind = 's' // small, wanted
		}
		fill := func(b []byte) ([]byte, error) { return append(b, big...), nil }
		if kind == 's' {
			fill = func(b []byte) ([]byte, error) { return append(b, "tiny"...), nil }
		}
		if err := j.Append(kind, fmt.Sprintf("k%03d", i), fill); err != nil {
			t.Fatal(err)
		}
	}
	size := j.Size()
	j.Close()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cr := &countingReader{r: f}
	var keys, payloads int
	end := Scan(cr, size, func(k byte) bool { return k == 'b' }, func(f Frame) {
		keys++
		if f.Payload != nil {
			payloads++
			if f.Kind == 's' && string(f.Payload) != "tiny" {
				t.Fatalf("wanted frame %s has payload %q", f.Key, f.Payload)
			}
		}
	})
	if end != size || keys != n {
		t.Fatalf("scan ended at %d of %d after %d frames", end, size, keys)
	}
	// n/5 wanted frames plus the tail, which is verified whatever its kind.
	if payloads != n/5+1 {
		t.Fatalf("%d payloads read, want %d", payloads, n/5+1)
	}
	if limit := int64(n*64 + len(big)); cr.n > limit {
		t.Fatalf("skipping scan read %d bytes of a %d-byte journal, limit %d", cr.n, size, limit)
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openAll(t, path, nil)
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p := bytes.Repeat([]byte{byte(w)}, 1+37*i)
				if err := j.Append(byte(w), fmt.Sprintf("w%d-%d", w, i), func(b []byte) ([]byte, error) { return append(b, p...), nil }); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()
	_, got := openAll(t, path, nil)
	if len(got) != writers*each {
		t.Fatalf("%d frames survived, want %d", len(got), writers*each)
	}
	next := make([]int, writers)
	for _, f := range got {
		w := int(f.Kind)
		if f.Key != fmt.Sprintf("w%d-%d", w, next[w]) || len(f.Payload) != 1+37*next[w] || bytes.Count(f.Payload, []byte{byte(w)}) != len(f.Payload) {
			t.Fatalf("writer %d frame %d came back as key %q, %d bytes", w, next[w], f.Key, len(f.Payload))
		}
		next[w]++
	}
}

// TestFailedFillWritesNothing: a payload that cannot be built costs its
// own frame and nothing else.
func TestFailedFillWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openAll(t, path, nil)
	boom := errors.New("boom")
	err := j.Append('a', "k1", func(b []byte) ([]byte, error) { return append(b, "half a payl"...), boom })
	if err != boom || j.Size() != 0 {
		t.Fatalf("failed fill: err %v, size %d; want its own error and an empty file", err, j.Size())
	}
	if err := j.Append('a', "k2", func(b []byte) ([]byte, error) { return append(b, "whole"...), nil }); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got := openAll(t, path, nil)
	if len(got) != 1 || got[0].Key != "k2" || string(got[0].Payload) != "whole" {
		t.Fatalf("replayed %+v, want the one frame that was filled", got)
	}
}

// TestLargeFrameBufferNotKept: the buffer is reused from frame to frame
// until one outgrows maxKeptBuf; that one's is let go, not pinned.
func TestLargeFrameBufferNotKept(t *testing.T) {
	j, _ := openAll(t, filepath.Join(t.TempDir(), "j"), nil)
	defer j.Close()
	payload := func(n int) func([]byte) ([]byte, error) {
		return func(b []byte) ([]byte, error) { return append(b, make([]byte, n)...), nil }
	}
	if err := j.Append('r', "k", payload(maxKeptBuf/2)); err != nil {
		t.Fatal(err)
	}
	if cap(j.buf) < maxKeptBuf/2 {
		t.Fatalf("a %d-byte frame left a %d-byte buffer: not reused", maxKeptBuf/2, cap(j.buf))
	}
	if err := j.Append('g', "k", payload(maxKeptBuf)); err != nil {
		t.Fatal(err)
	}
	if j.buf != nil {
		t.Fatalf("a frame over maxKeptBuf left its %d-byte buffer pinned", cap(j.buf))
	}
}

func TestClosedJournalRefusesAppends(t *testing.T) {
	var zero Journal
	if err := zero.Append('a', "k", nil); err == nil {
		t.Fatal("the zero Journal accepted an append")
	}
	if zero.Size() != 0 {
		t.Fatalf("zero Journal Size = %d", zero.Size())
	}
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openAll(t, path, nil)
	j.Close()
	if err := j.Append('a', "k", nil); err == nil {
		t.Fatal("a closed Journal accepted an append")
	}
	if err := j.Append('a', string(make([]byte, 256)), nil); err == nil {
		t.Fatal("a 256-byte key was accepted")
	}
	if _, err := Open(filepath.Join(path, "under-a-file"), nil, func(Frame) {}); err == nil {
		t.Fatal("opening a journal under a regular file succeeded")
	}
}

// encode is the frame layout written down a second time, independently of
// Append.
func encode(fr Frame) []byte {
	body := append([]byte{fr.Kind, byte(len(fr.Key))}, fr.Key...)
	body = append(body, fr.Payload...)
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(b, body...)
}

// FuzzJournalScan: arbitrary bytes never panic the scanner, every frame it
// yields re-encodes to exactly the bytes it was read from (so its checksum
// held), and the prefix it accepts is the longest valid one: rescanning
// the prefix yields the same frames, and the byte after it does not start
// a valid frame.
func FuzzJournalScan(f *testing.F) {
	dir := f.TempDir()
	seed := func(frames ...Frame) []byte {
		path := filepath.Join(dir, "seed")
		os.Remove(path)
		j, err := Open(path, nil, func(Frame) {})
		if err != nil {
			f.Fatal(err)
		}
		for _, fr := range frames {
			j.Append(fr.Kind, fr.Key, func(b []byte) ([]byte, error) { return append(b, fr.Payload...), nil })
		}
		j.Close()
		b, _ := os.ReadFile(path)
		return b
	}
	two := seed(Frame{'i', "j000001", []byte(`{"graph":"g"}`)}, Frame{'r', "j000001", bytes.Repeat([]byte{1, 2, 3}, 300)})
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(two)-5])
	f.Add(append(append([]byte(nil), two...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x', 0))
	f.Add(seed(Frame{'x', "", nil}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []Frame
		var enc []byte
		end := Scan(bytes.NewReader(data), int64(len(data)), nil, func(fr Frame) {
			got = append(got, fr)
			enc = append(enc, encode(fr)...)
		})
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("prefix %d outside [0, %d]", end, len(data))
		}
		if !bytes.Equal(enc, data[:end]) {
			t.Fatalf("the %d frames yielded do not re-encode to the %d-byte prefix accepted", len(got), end)
		}
		again := 0
		if e2 := Scan(bytes.NewReader(data[:end]), end, nil, func(Frame) { again++ }); e2 != end || again != len(got) {
			t.Fatalf("rescanning the prefix: %d frames to %d, first scan %d to %d", again, e2, len(got), end)
		}
		if rest := data[end:]; Scan(bytes.NewReader(rest), int64(len(rest)), nil, func(Frame) {}) != 0 {
			t.Fatalf("a valid frame starts at %d, where the scan stopped", end)
		}
		// With skipping on, the same frame boundaries.
		skipped := 0
		if e3 := Scan(bytes.NewReader(data[:end]), end, func(byte) bool { return true }, func(Frame) { skipped++ }); e3 != end || skipped != len(got) {
			t.Fatalf("skipping scan of a valid prefix: %d frames to %d, want %d to %d", skipped, e3, len(got), end)
		}
	})
}
