package graph

import (
	"bufio"
	"fmt"
	"io"
)

// Formats lists the input formats Read accepts, in the spelling the CLI
// flags and the upload API use.
var Formats = []string{"edges", "mtx", "bin"}

// Read parses a graph from r in the named format ("edges", "mtx", or
// "bin") and builds the CSR. The text formats go through FromEdges with
// the given build options; the binary format is a preprocessed CSR
// already, so opts is ignored for it.
func Read(r io.Reader, format string, opts BuildOptions) (*CSR, error) {
	switch format {
	case "bin":
		return ReadBinary(bufio.NewReader(r))
	case "edges", "mtx":
		var (
			n     int
			edges []Edge
			err   error
		)
		if format == "edges" {
			n, edges, err = ReadEdgeList(r)
		} else {
			n, edges, err = ReadMatrixMarket(r)
		}
		if err != nil {
			return nil, err
		}
		return FromEdges(n, edges, opts)
	default:
		return nil, fmt.Errorf("graph: unknown format %q (have %v)", format, Formats)
	}
}
