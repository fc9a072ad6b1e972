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

// read parses r to its end, numbering lines from line. It reads blocks of
// up to two maximal lines into one buffer, carrying a cut line over to
// the next block; a read error is reported after the whole lines before
// it, and ahead of the line it cut.
func (f *lineFormat) read(r io.Reader, line int) ([]Edge, error) {
	buf := make([]byte, 2*maxLine)
	var edges []Edge
	var rerr error
	for start, end := 0, 0; ; {
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
		var err error
		if edges, lines, err = f.block(edges, data, line); err != nil {
			return nil, err
		}
		start, line = len(data), line+lines
		switch {
		case rerr == io.EOF:
			return edges, nil
		case rerr != nil:
			return nil, rerr
		case end-start >= maxLine:
			return nil, bufio.ErrTooLong
		}
	}
}

// block appends the edges of data's lines, numbered from line, and
// returns how many lines it held. The lines are split at newlines across
// the live workers, each writing into a range sized by its line count;
// the ranges are then closed up in file order and the first error in file
// order wins, so the result does not depend on the split.
func (f *lineFormat) block(edges []Edge, data []byte, line int) ([]Edge, int, error) {
	type part struct {
		data        []byte
		line, at, n int
		err         error
	}
	// A worker gets at least 64 KiB of the block.
	parts := make([]part, max(1, min(parallel.Live().Workers(), len(data)>>16)))
	base, lines, lo := len(edges), 0, 0
	for w := range parts {
		hi := len(data)
		if w < len(parts)-1 {
			hi = max(lo, (w+1)*len(data)/len(parts))
			if i := bytes.IndexByte(data[hi:], '\n'); i >= 0 {
				hi += i + 1
			} else {
				hi = len(data)
			}
		}
		parts[w] = part{data: data[lo:hi], line: line + lines, at: base + lines}
		lines += bytes.Count(data[lo:hi], []byte{'\n'})
		lo = hi
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		lines++ // the input's last line has no newline
	}
	edges = slices.Grow(edges, lines)[:base+lines]
	parallel.ForBlockIndexed(len(parts), len(parts), func(w, _, _ int) {
		p := &parts[w]
		p.n, p.err = f.parse(edges[p.at:], p.data, p.line)
	})
	out := base
	for _, p := range parts {
		if out != p.at {
			copy(edges[out:], edges[p.at:p.at+p.n])
		}
		out += p.n
		if p.err != nil {
			return nil, 0, p.err
		}
	}
	return edges[:out], lines, nil
}

// parse writes the edges of data's lines, numbered from line, to dst and
// returns their count.
func (f *lineFormat) parse(dst []Edge, data []byte, line int) (int, error) {
	k := 0
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
			return k, bufio.ErrTooLong
		}
		if !ok {
			var skip bool
			var err error
			if e, skip, err = f.slow(string(text), line); err != nil {
				return k, err
			} else if skip {
				continue
			}
		}
		dst[k] = e
		k++
	}
	return k, nil
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
