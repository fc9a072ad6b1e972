package graph

// Components labels the connected components of g. It returns a component
// id per vertex (ids are assigned in order of the smallest vertex in each
// component) and the number of components. A simple iterative BFS is used.
// Through LargestComponent it is a set-up stage: the benchmark's graph.lcc
// span, part of every workload's setup_s.
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
// Figure 2 / §4.4 show vertex ordering dominates SpMV locality.
func LargestComponent(g *CSR) *CSR {
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
	// Order-preserving relabeling: old id -> new id, increasing.
	newID := make([]int32, g.NumV)
	n := int32(0)
	for v := 0; v < g.NumV; v++ {
		if label[v] == best {
			newID[v] = n
			n++
		} else {
			newID[v] = -1
		}
	}
	offsets := make([]int64, n+1)
	pos := int64(0)
	outAdjLen := int64(0)
	for v := 0; v < g.NumV; v++ {
		if newID[v] < 0 {
			continue
		}
		outAdjLen += g.Offsets[v+1] - g.Offsets[v]
	}
	adj := make([]int32, outAdjLen)
	var wts []float64
	if g.Weights != nil {
		wts = make([]float64, outAdjLen)
	}
	ni := int32(0)
	for v := 0; v < g.NumV; v++ {
		if newID[v] < 0 {
			continue
		}
		offsets[ni] = pos
		for k := g.Offsets[v]; k < g.Offsets[v+1]; k++ {
			adj[pos] = newID[g.Adj[k]] // neighbors are in-component by construction
			if wts != nil {
				wts[pos] = g.Weights[k]
			}
			pos++
		}
		ni++
	}
	offsets[n] = pos
	return &CSR{NumV: int(n), Offsets: offsets, Adj: adj, Weights: wts}
}
