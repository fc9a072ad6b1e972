package core

import (
	"fmt"

	"repro/internal/graph"
)

// ZoomResult is a layout of the k-hop neighborhood of a selected vertex,
// with the mapping back to the original vertex ids.
type ZoomResult struct {
	// Layout is the neighborhood's own layout (subgraph vertex ids).
	Layout *Layout
	// Subgraph is the extracted k-hop neighborhood.
	Subgraph *graph.CSR
	// Orig[i] is the original id of subgraph vertex i.
	Orig []int32
	// Center is the subgraph id of the selected vertex.
	Center int32
}

// Zoom implements the §4.5.2 interactive "zoom" feature: extract the
// induced subgraph on all vertices within hops of center, then lay it out
// with ParHDE. Real-time zooming is feasible because ParHDE handles
// million-edge graphs interactively.
func Zoom(g *graph.CSR, center int32, hops int, opt Options) (*ZoomResult, error) {
	if hops < 1 {
		return nil, fmt.Errorf("core: zoom needs at least 1 hop")
	}
	vertices, err := graph.Neighborhood(g, center, hops)
	if err != nil {
		return nil, err
	}
	sub, orig, err := graph.InducedSubgraph(g, vertices)
	if err != nil {
		return nil, err
	}
	var subCenter int32 = -1
	for i, v := range orig {
		if v == center {
			subCenter = int32(i)
			break
		}
	}
	if opt.Subspace <= 0 {
		opt.Subspace = DefaultSubspace
	}
	opt.Basis = nil // sub renumbers g's vertices
	lay, _, err := ParHDE(sub, opt)
	if err != nil {
		return nil, err
	}
	return &ZoomResult{
		Layout:   lay,
		Subgraph: sub,
		Orig:     orig,
		Center:   subCenter,
	}, nil
}
