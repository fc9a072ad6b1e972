package graph

import "repro/internal/parallel"

// Components labels the connected components of g. It returns a component
// id per vertex (ids are assigned in order of the smallest vertex in each
// component) and the number of components. A simple iterative BFS is used:
// a union-find over the edges (Afforest's) was slower on road-like graphs
// at two workers than this one pass. Through LargestComponent it is a
// set-up stage: the benchmark's graph.lcc span, part of every workload's
// setup_s.
func Components(g *CSR) (label []int32, count int) {
	label = make([]int32, g.NumV)
	for i := range label {
		label[i] = -1
	}
	queue := make([]int32, 0, 1024)
	var next int32
	for start := 0; start < g.NumV; start++ {
		if label[start] >= 0 {
			continue
		}
		id := next
		next++
		label[start] = id
		queue = append(queue[:0], int32(start))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(v) {
				if label[u] < 0 {
					label[u] = id
					queue = append(queue, u)
				}
			}
		}
	}
	return label, int(next)
}

// LargestComponent extracts the largest connected component of g,
// renumbering the surviving vertices contiguously while preserving their
// original relative order (the paper's §4.1: "we remove vertices not in
// the component and renumber the vertices to be contiguous, but preserving
// the original implied ordering"). Order preservation matters because
// Figure 2 / §4.4 show vertex ordering dominates SpMV locality. It runs on
// the live budget; FromEdges extracts on its own.
func LargestComponent(g *CSR) *CSR {
	return largestComponent(g, parallel.Live())
}

// largestComponent is LargestComponent on bud's workers.
func largestComponent(g *CSR, bud parallel.Budget) *CSR {
	label, count := Components(g)
	if count <= 1 {
		return g
	}
	sizes := make([]int64, count)
	for _, l := range label {
		sizes[l]++
	}
	best := int32(0)
	for i := 1; i < count; i++ {
		if sizes[i] > sizes[best] {
			best = int32(i)
		}
	}
	// Order-preserving relabeling: old id -> new id, increasing; the rows
	// are copied on bud's workers.
	newID := make([]int32, g.NumV)
	old := make([]int32, 0, sizes[best]) // old[new id] = old id
	offsets := make([]int64, 1, sizes[best]+1)
	for v := range newID {
		newID[v] = -1
		if label[v] == best {
			newID[v] = int32(len(old))
			old = append(old, int32(v))
			offsets = append(offsets, offsets[len(offsets)-1]+g.Offsets[v+1]-g.Offsets[v])
		}
	}
	n := len(old)
	adj := make([]int32, offsets[n])
	var wts []float64
	if g.Weights != nil {
		wts = make([]float64, offsets[n])
	}
	bud.For(n, func(i int) {
		v := old[i]
		row := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
		out := adj[offsets[i]:offsets[i+1]]
		for k, u := range row {
			out[k] = newID[u] // neighbors are in-component by construction
		}
		if wts != nil {
			copy(wts[offsets[i]:offsets[i+1]], g.Weights[g.Offsets[v]:g.Offsets[v+1]])
		}
	})
	return &CSR{NumV: n, Offsets: offsets, Adj: adj, Weights: wts}
}
