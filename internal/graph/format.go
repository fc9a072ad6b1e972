package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// Formats lists the input formats Read accepts, in the spelling the CLI
// flags and the upload API use.
var Formats = []string{"edges", "mtx", "bin"}

// ErrTooManyVertices reports a text input whose vertex count is out of
// proportion to its size (HTTP 413 on upload).
var ErrTooManyVertices = errors.New("graph: vertex count out of proportion to the input")

// Read parses a graph from r in the named format ("edges", "mtx", or
// "bin") and builds the CSR. The text formats go through ReadEdges and
// FromEdges with the given build options; the binary format is a
// preprocessed CSR already, so opts is ignored for it.
func Read(r io.Reader, format string, opts BuildOptions) (*CSR, error) {
	if format == "bin" {
		return ReadBinary(bufio.NewReader(r))
	}
	n, edges, err := ReadEdges(r, format)
	if err != nil {
		return nil, err
	}
	return FromEdges(n, edges, opts)
}

// ReadEdges parses a text format ("edges" or "mtx") into its vertex count
// and raw edge list. The count is an edge list's largest id + 1 or a
// MatrixMarket size line, and FromEdges allocates 8 bytes per vertex
// before anything else, so a count above the input's byte count is
// refused with ErrTooManyVertices: an input whose ids have no gaps spends
// more than a byte per vertex naming them, while a few bytes naming
// vertex 2^31 − 2 would ask for ≈ 16 GB.
func ReadEdges(r io.Reader, format string) (n int, edges []Edge, err error) {
	cr := &countingReader{r: r}
	switch format {
	case "edges":
		n, edges, err = ReadEdgeList(cr)
	case "mtx":
		n, edges, err = ReadMatrixMarket(cr)
	default:
		return 0, nil, fmt.Errorf("graph: unknown format %q (have %v)", format, Formats)
	}
	if err != nil {
		return 0, nil, err
	}
	if int64(n) > cr.n {
		return 0, nil, fmt.Errorf("%w: %d vertices from %d bytes", ErrTooManyVertices, n, cr.n)
	}
	return n, edges, nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += int64(k)
	return k, err
}
