package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list: one "u v" or
// "u v w" pair per line, '#' and '%' comment lines ignored. Vertex ids are
// 0-based. The number of vertices is 1 + the maximum id seen. The returned
// edges are raw (not preprocessed); pass them to FromEdges. A line may be
// at most 1 MiB long.
func ReadEdgeList(r io.Reader) (n int, edges []Edge, err error) {
	f := lineFormat{hi: math.MaxInt32, slow: parseEdgeLine}
	if edges, err = f.read(r, 1); err != nil {
		return 0, nil, err
	}
	maxID := int32(-1)
	for _, e := range edges {
		maxID = max(maxID, e.U, e.V)
	}
	return int(maxID + 1), edges, nil
}

// parseEdgeLine parses line number line of an edge list; skip reports a
// blank or comment line. It defines the accepted language: the fast path
// takes only lines on which it agrees with parseEdgeLine.
func parseEdgeLine(text string, line int) (e Edge, skip bool, err error) {
	text = strings.TrimSpace(text)
	if text == "" || text[0] == '#' || text[0] == '%' {
		return e, true, nil
	}
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return e, false, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", line, text)
	}
	u, err := strconv.ParseInt(fields[0], 10, 32)
	if err != nil {
		return e, false, fmt.Errorf("graph: line %d: %v", line, err)
	}
	v, err := strconv.ParseInt(fields[1], 10, 32)
	if err != nil {
		return e, false, fmt.Errorf("graph: line %d: %v", line, err)
	}
	if u < 0 || v < 0 {
		return e, false, fmt.Errorf("graph: line %d: negative vertex id", line)
	}
	w := 1.0
	if len(fields) >= 3 {
		w, err = strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return e, false, fmt.Errorf("graph: line %d: %v", line, err)
		}
	}
	return Edge{U: int32(u), V: int32(v), W: w}, false, nil
}

// WriteEdgeList writes g as a 0-based edge list, each undirected edge once
// (u < v), with weights when present.
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	for v := int32(0); int(v) < g.NumV; v++ {
		for k := g.Offsets[v]; k < g.Offsets[v+1]; k++ {
			u := g.Adj[k]
			if u <= v {
				continue
			}
			var err error
			if g.Weights != nil {
				_, err = fmt.Fprintf(bw, "%d %d %g\n", v, u, g.Weights[k])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", v, u)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a MatrixMarket coordinate file (the format of
// the SuiteSparse collection the paper draws its real graphs from) into a
// raw edge list. Pattern, real, and integer fields are supported; the
// matrix is interpreted as a graph regardless of declared symmetry, since
// preprocessing symmetrizes anyway. Entries use 1-based indices.
func ReadMatrixMarket(r io.Reader) (n int, edges []Edge, err error) {
	br := bufio.NewReaderSize(r, maxLine)
	next := func() (string, error) {
		line, err := br.ReadSlice('\n')
		switch {
		case err == bufio.ErrBufferFull:
			return "", bufio.ErrTooLong
		case err == nil, err == io.EOF && len(line) > 0:
			return string(line), nil
		}
		return "", err // a read error goes ahead of the line it cut
	}
	header, err := next()
	if err == io.EOF {
		return 0, nil, fmt.Errorf("graph: empty MatrixMarket input")
	}
	if err != nil {
		return 0, nil, err
	}
	header = strings.ToLower(header)
	if !strings.HasPrefix(header, "%%matrixmarket") {
		return 0, nil, fmt.Errorf("graph: missing MatrixMarket banner")
	}
	if !strings.Contains(header, "coordinate") {
		return 0, nil, fmt.Errorf("graph: only coordinate MatrixMarket files are supported")
	}
	pattern := strings.Contains(header, "pattern")
	// Skip comments, read size line. Its entry count reserves nothing: the
	// input, not its header, sizes the edge list.
	var rows, cols, nnz int64
	for {
		line, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, nil, err
		}
		text := strings.TrimSpace(line)
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		if _, err := fmt.Sscan(text, &rows, &cols, &nnz); err != nil {
			return 0, nil, fmt.Errorf("graph: bad MatrixMarket size line %q: %v", text, err)
		}
		if nnz < 0 {
			return 0, nil, fmt.Errorf("graph: bad MatrixMarket size line %q: negative entry count", text)
		}
		break
	}
	if rows != cols {
		return 0, nil, fmt.Errorf("graph: MatrixMarket matrix is %dx%d, want square", rows, cols)
	}
	f := lineFormat{lo: 1, hi: min(rows, math.MaxInt32), pattern: pattern, abs: true,
		slow: func(text string, _ int) (Edge, bool, error) { return parseEntry(text, rows, pattern) }}
	if edges, err = f.read(br, 1); err != nil {
		return 0, nil, err
	}
	return int(rows), edges, nil
}

// parseEntry parses one entry line of a MatrixMarket file of the given
// order, as parseEdgeLine does for edge lists.
func parseEntry(text string, rows int64, pattern bool) (e Edge, skip bool, err error) {
	text = strings.TrimSpace(text)
	if text == "" || strings.HasPrefix(text, "%") {
		return e, true, nil
	}
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return e, false, fmt.Errorf("graph: bad MatrixMarket entry %q", text)
	}
	i, err := strconv.ParseInt(fields[0], 10, 32)
	if err != nil {
		return e, false, err
	}
	j, err := strconv.ParseInt(fields[1], 10, 32)
	if err != nil {
		return e, false, err
	}
	if i < 1 || i > rows || j < 1 || j > rows {
		return e, false, fmt.Errorf("graph: MatrixMarket entry (%d,%d) out of range", i, j)
	}
	w := 1.0
	if !pattern && len(fields) >= 3 {
		w, err = strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return e, false, err
		}
		if w < 0 {
			w = -w // graph similarity weights are magnitudes
		}
	}
	return Edge{U: int32(i - 1), V: int32(j - 1), W: w}, false, nil
}

// WriteMatrixMarket writes g as a MatrixMarket coordinate file
// (symmetric; pattern for unweighted graphs, real for weighted), each
// undirected edge once with 1-based indices — round-trippable with
// ReadMatrixMarket and consumable by SuiteSparse tooling.
func WriteMatrixMarket(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	field := "pattern"
	if g.Weighted() {
		field = "real"
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate %s symmetric\n", field); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", g.NumV, g.NumV, g.NumEdges()); err != nil {
		return err
	}
	for v := int32(0); int(v) < g.NumV; v++ {
		for k := g.Offsets[v]; k < g.Offsets[v+1]; k++ {
			u := g.Adj[k]
			if u < v {
				continue
			}
			var err error
			if g.Weighted() {
				_, err = fmt.Fprintf(bw, "%d %d %g\n", u+1, v+1, g.Weights[k])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", u+1, v+1)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
