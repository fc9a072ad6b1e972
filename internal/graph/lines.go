package graph

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"strconv"

	"repro/internal/parallel"
)

// maxLine is the longest line the text parsers accept, newline included;
// a longer one is bufio.ErrTooLong, as under the parsers' former
// bufio.Scanner, so the accepted language does not change.
const maxLine = 1 << 20

// lineFormat is what the line engine knows of one text format: the ids
// and weights of its common line, and the parser of every other line.
type lineFormat struct {
	lo, hi  int64 // accepted ids; an id is stored less lo
	pattern bool  // a third field is not parsed
	abs     bool  // a negative weight is stored as its magnitude
	// slow parses line number line, skips blanks and comments, and words
	// every error; fast takes only lines on which it agrees with slow.
	slow func(text string, line int) (e Edge, skip bool, err error)
}

// read parses r to its end, numbering lines from line, on bud's workers,
// and returns the edges and their largest stored id (-1 for none). size is
// how many bytes r is known to hold, or -1: a sized input is read into one
// buffer of its size and parsed as one block, so its edge array is
// allocated once at its final length; an unsized one is read in blocks of
// up to two maximal lines, carrying a cut line over to the next block. A
// read error is reported after the whole lines before it, and ahead of
// the line it cut.
func (f *lineFormat) read(r io.Reader, line int, size int64, bud parallel.Budget) ([]Edge, int32, error) {
	n := int64(2 * maxLine)
	if size >= 0 {
		n = size + 1 // the extra byte meets EOF in the first block
	}
	buf := make([]byte, n)
	var edges []Edge
	top := int32(-1)
	var rerr error
	for start, end := 0, 0; ; {
		if end == len(buf) && len(buf) < 2*maxLine {
			buf = append(buf, make([]byte, 2*maxLine)...) // r held more than size said
		}
		end = copy(buf, buf[start:end])
		for end < len(buf) && rerr == nil {
			var n int
			n, rerr = r.Read(buf[end:])
			end += n
		}
		data := buf[:end]
		if rerr != io.EOF {
			data = data[:bytes.LastIndexByte(data, '\n')+1]
		}
		var lines int
		var hi int32
		var err error
		if edges, lines, hi, err = f.block(edges, data, line, bud); err != nil {
			return nil, 0, err
		}
		top = max(top, hi)
		start, line = len(data), line+lines
		switch {
		case rerr == io.EOF:
			return edges, top, nil
		case rerr != nil:
			return nil, 0, rerr
		case end-start >= maxLine:
			return nil, 0, bufio.ErrTooLong
		}
	}
}

// linePart is one worker's share of a block: whole lines, their first
// line number, where their edges go and what parsing them found.
type linePart struct {
	data        []byte
	line, at, n int
	hi          int32 // largest stored id, -1 for none
	err         error
}

// block appends the edges of data's lines, numbered from line, and
// returns how many lines it held and the largest id it stored. The lines
// are split at newlines into one part per worker; the workers count their
// part's lines, and then each parses its part into a range of edges sized
// by that count and placed by the counts of the parts before it. The
// ranges are closed up in file order and the first error in file order
// wins, so the result does not depend on the split.
func (f *lineFormat) block(edges []Edge, data []byte, line int, bud parallel.Budget) ([]Edge, int, int32, error) {
	// A worker gets at least 64 KiB of the block.
	parts := make([]linePart, max(1, min(bud.Workers(), len(data)>>16)))
	parallel.ForBlockIndexed(len(parts), len(parts), func(w, _, _ int) {
		lo, hi := lineCut(data, w, len(parts)), lineCut(data, w+1, len(parts))
		parts[w] = linePart{data: data[lo:hi], n: bytes.Count(data[lo:hi], []byte{'\n'})}
	})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		parts[len(parts)-1].n++ // the input's last line has no newline
	}
	base, lines := len(edges), 0
	for w := range parts {
		p := &parts[w]
		p.line, p.at = line+lines, base+lines
		lines += p.n
	}
	edges = slices.Grow(edges, lines)[:base+lines]
	parallel.ForBlockIndexed(len(parts), len(parts), func(w, _, _ int) {
		p := &parts[w]
		p.n, p.hi, p.err = f.parse(edges[p.at:], p.data, p.line)
	})
	out, top := base, int32(-1)
	for _, p := range parts {
		if out != p.at {
			copy(edges[out:], edges[p.at:p.at+p.n])
		}
		out += p.n
		if p.err != nil {
			return nil, 0, 0, p.err
		}
		top = max(top, p.hi)
	}
	return edges[:out], lines, top, nil
}

// lineCut is where part w of parts starts in data: just past the first
// newline at or after w·len(data)/parts, so every part holds whole lines.
func lineCut(data []byte, w, parts int) int {
	if w == 0 {
		return 0
	}
	if w == parts {
		return len(data)
	}
	at := w * len(data) / parts
	if i := bytes.IndexByte(data[at:], '\n'); i >= 0 {
		return at + i + 1
	}
	return len(data)
}

// parse writes the edges of data's lines, numbered from line, to dst and
// returns their count and the largest id among them (-1 for none).
func (f *lineFormat) parse(dst []Edge, data []byte, line int) (int, int32, error) {
	k, hi := 0, int32(-1)
	for ; len(data) > 0; line++ {
		e, n, ok := f.fast(data)
		if !ok {
			if n = bytes.IndexByte(data, '\n'); n < 0 {
				n = len(data)
			}
		}
		text := data[:n]
		data = data[min(n+1, len(data)):]
		if n >= maxLine {
			return k, hi, bufio.ErrTooLong
		}
		if !ok {
			var skip bool
			var err error
			if e, skip, err = f.slow(string(text), line); err != nil {
				return k, hi, err
			} else if skip {
				continue
			}
		}
		dst[k] = e
		k++
		hi = max(hi, e.U, e.V)
	}
	return k, hi, nil
}

// fast parses the line at the head of data if it is the common kind:
// ASCII blanks around two unsigned decimal ids in [lo, hi] and at most one
// more field. It returns the line's length. A field holding a non-ASCII
// space would split where fast does not, but ParseFloat refuses it, and a
// pattern file ignores every field after the second.
func (f *lineFormat) fast(data []byte) (e Edge, n int, ok bool) {
	var ids [2]int64
	i := 0
	for k := range ids {
		for i < len(data) && isBlank(data[i]) {
			i++
		}
		j, x := i, int64(0)
		for ; j < len(data) && data[j]-'0' <= 9; j++ {
			x = 10*x + int64(data[j]-'0')
		}
		// Over 10 digits (leading zeros, overflow) is slow's to judge.
		if j == i || j-i > 10 || x < f.lo || x > f.hi || j == len(data) && k == 0 ||
			j < len(data) && !isBlank(data[j]) && data[j] != '\n' {
			return e, 0, false
		}
		ids[k], i = x-f.lo, j
	}
	for i < len(data) && isBlank(data[i]) {
		i++
	}
	w := 1.0
	if field := i; i < len(data) && data[i] != '\n' {
		for i < len(data) && data[i] != '\n' && !isBlank(data[i]) {
			i++
		}
		end := i
		for i < len(data) && isBlank(data[i]) {
			i++
		}
		if i < len(data) && data[i] != '\n' {
			return e, 0, false
		}
		if !f.pattern {
			var err error
			if w, err = strconv.ParseFloat(string(data[field:end]), 64); err != nil {
				return e, 0, false
			}
			if f.abs && w < 0 {
				w = -w
			}
		}
	}
	return Edge{U: int32(ids[0]), V: int32(ids[1]), W: w}, i, true
}

// isBlank reports the ASCII white space a line can hold; strings.Fields
// splits on these and on non-ASCII spaces, which fast leaves to slow.
func isBlank(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}
