// Package journal is an append-only file of checksummed frames. It knows
// nothing about what the frames mean: a frame is a kind byte, a short key
// and an opaque payload, laid out little-endian as
//
//	length u32 | CRC-32C u32 | kind u8 | keyLen u8 | key | payload
//
// where length counts, and the checksum covers, the bytes after the
// checksum. Kind and key sit in the fixed part so a reader that only needs
// to know which keys a file mentions can step over payloads unread. Each
// Append is one write(2) of one whole frame, so a frame survives the death
// of the process once Append returns; nothing is fsynced, so it need not
// survive power loss.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
)

const (
	prefixLen = 8 // length + checksum
	headLen   = 2 // kind + keyLen

	// maxKeptBuf is the largest frame whose buffer Append keeps for the
	// next frame. Steady traffic reuses one buffer; a frame beyond this is rare
	// and large (an uploaded graph), and must not pin its size for good.
	maxKeptBuf = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one journal record. Payload is nil when the scan skipped it.
type Frame struct {
	Kind    byte
	Key     string
	Payload []byte
}

// Scan visits the frames in the first size bytes of r in order and
// returns the offset where the longest valid prefix ends: at the first
// frame that is cut short, implausible or fails its checksum, or at size.
// A frame whose kind skip accepts is stepped over — payload not read,
// checksum not verified — unless it is the last one, the only frame an
// interrupted append can have damaged. With a nil skip every visited
// frame has passed its checksum.
func Scan(r io.ReaderAt, size int64, skip func(kind byte) bool, visit func(Frame)) (off int64) {
	var fixed [prefixLen + headLen]byte
	for size-off >= int64(len(fixed)) && readFull(r, fixed[:], off) {
		length := int64(binary.LittleEndian.Uint32(fixed[:]))
		keyEnd := headLen + int64(fixed[prefixLen+1]) // within the checksummed body
		end := off + prefixLen + length
		if length < keyEnd || end > size {
			break
		}
		read := length
		if skip != nil && skip(fixed[prefixLen]) && end < size {
			read = keyEnd
		}
		body := make([]byte, read)
		if !readFull(r, body, off+prefixLen) {
			break
		}
		f := Frame{Kind: body[0], Key: string(body[headLen:keyEnd])}
		if read == length {
			if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(fixed[4:]) {
				break
			}
			f.Payload = body[keyEnd:]
		}
		visit(f)
		off = end
	}
	return off
}

// readFull reports whether ReadAt filled b (an io.EOF beside a full read,
// at the exact end of the input, is not a failure).
func readFull(r io.ReaderAt, b []byte, off int64) bool {
	n, _ := r.ReadAt(b, off)
	return n == len(b)
}

// Journal is a file open for appending. Appends from any number of
// goroutines are serialized and share one frame buffer. The zero Journal
// is a closed one: every Append fails.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	buf  []byte
	size int64
}

// Open opens the journal at path (creating it, and its directory, if need
// be), replays its frames through visit as Scan would, and cuts off
// whatever follows the last valid frame so the next append lands on a
// frame boundary.
func Open(path string, skip func(kind byte) bool, visit func(Frame)) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	end := Scan(f, size, skip, visit)
	if err == nil && end < size {
		err = f.Truncate(end)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	return &Journal{f: f, size: end}, nil
}

// Append writes one frame. fill appends the payload to the buffer it is
// given and returns it (a nil fill is an empty payload); if it fails,
// nothing is written and Append returns its error. The buffer is the
// journal's own and is reused while frames stay under maxKeptBuf, so fill
// must not retain it.
func (j *Journal) Append(kind byte, key string, fill func([]byte) ([]byte, error)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	b := append(j.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0, kind, byte(len(key)))
	b = append(b, key...)
	if fill != nil {
		var err error
		if b, err = fill(b); err != nil {
			return err
		}
	}
	if j.buf = b; len(b) > maxKeptBuf {
		j.buf = nil
	}
	if len(key) > math.MaxUint8 || len(b)-prefixLen > math.MaxUint32 {
		return fmt.Errorf("journal: frame of %d bytes keyed by %d does not fit the format", len(b), len(key))
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-prefixLen))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[prefixLen:], castagnoli))
	if _, err := j.f.Write(b); err != nil {
		// Part of the frame may have landed, and would hide every later
		// frame from Scan. O_APPEND puts the next write at the new end.
		_ = j.f.Truncate(j.size) // best effort, the write error is the one to report
		return err
	}
	j.size += int64(len(b))
	return nil
}

// Size returns the length of the file; every byte of it is a valid frame.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Close closes the file; later appends fail.
func (j *Journal) Close() error { return j.f.Close() }
