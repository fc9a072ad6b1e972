package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/catalog"
	"repro/internal/dyngraph"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// PATCH /graphs/{name}: fold a batch of mutations into the graph, install
// the result in the catalog, journal the batch, and queue a refinement
// layout. The response is 202 with the queued job — mutations apply
// immediately (and are visible to /graphs and future jobs), the picture
// catches up when the refinement installs and streams its delta.

// maxMutationBody bounds one PATCH body.
const maxMutationBody = 8 << 20

// maxBatchVertices bounds the vertices one PATCH may add: the id space is
// materialized (8 bytes of CSR offsets per vertex) as soon as the batch is
// folded, whatever the body's size.
const maxBatchVertices = 1 << 20

// mutationOp is one entry of the PATCH body's "mutations" array.
type mutationOp struct {
	// Op is one of "addEdge", "delEdge", "addVertices", "delVertex".
	Op string `json:"op"`
	U  int32  `json:"u"`
	V  int32  `json:"v"`
	// Count is the number of vertices an addVertices op appends.
	Count int `json:"count"`
}

// mutationRequest is the PATCH /graphs/{name} body.
type mutationRequest struct {
	Mutations []mutationOp `json:"mutations"`
}

// decodeMutations converts the wire ops to dyngraph mutations.
func decodeMutations(ops []mutationOp) ([]dyngraph.Mutation, error) {
	if len(ops) == 0 {
		return nil, errors.New("empty mutation batch")
	}
	out := make([]dyngraph.Mutation, len(ops))
	added := 0
	for i, op := range ops {
		m := dyngraph.Mutation{U: op.U, V: op.V, Count: op.Count}
		switch op.Op {
		case "addEdge":
			m.Op = dyngraph.AddEdge
		case "delEdge":
			m.Op = dyngraph.DelEdge
		case "addVertices":
			m.Op = dyngraph.AddVertices
			if op.Count > maxBatchVertices-added {
				return nil, fmt.Errorf("mutation %d: the batch adds more than %d vertices", i, maxBatchVertices)
			}
			added += max(op.Count, 0)
		case "delVertex":
			m.Op = dyngraph.DelVertex
		default:
			return nil, fmt.Errorf("mutation %d: unknown op %q (have addEdge, delEdge, addVertices, delVertex)", i, op.Op)
		}
		out[i] = m
	}
	return out, nil
}

// decodeMutationRequest parses one PATCH body. Unknown fields are rejected
// so a typoed op fails loudly instead of applying half a batch.
func decodeMutationRequest(body io.Reader) (mutationRequest, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req mutationRequest
	if err := dec.Decode(&req); err != nil {
		return req, badRequest{fmt.Errorf("malformed mutation request: %w", err)}
	}
	return req, nil
}

// mutateGraph is the one way a mutation batch reaches the catalog, from a
// live PATCH or from the journal at start-up, under graphMu. g is the named
// entry's current graph. A batch that does not validate against it is
// refused before anything changes; a valid one is folded into a new graph
// that replaces g in the catalog, so every later layout job runs against
// the mutated graph and the entry's generation (part of every render-cache
// key) moves past any cached tile of the old one. A batch that changes
// nothing leaves the entry as it was. It returns the graph after the batch
// and how many mutations changed something.
func (s *Server) mutateGraph(name string, g *graph.CSR, ops []mutationOp) (*graph.CSR, int, error) {
	batch, err := decodeMutations(ops)
	if err != nil {
		return nil, 0, badRequest{err}
	}
	next, applied, err := dyngraph.Apply(g, batch)
	switch {
	case errors.Is(err, dyngraph.ErrBadMutation):
		return nil, 0, badRequest{err}
	case err == nil && next != g:
		err = s.cat.Replace(name, next)
	}
	return next, applied, err
}

// handleGraphMutate is PATCH /graphs/{name}.
func (s *Server) handleGraphMutate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	req, err := decodeMutationRequest(http.MaxBytesReader(w, r.Body, maxMutationBody))
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	s.graphMu.Lock()
	var next *graph.CSR
	var applied int
	if g, ok := s.cat.Get(name); !ok {
		err = fmt.Errorf("%w: %q", catalog.ErrNotFound, name)
	} else if next, applied, err = s.mutateGraph(name, g, req.Mutations); err == nil {
		frame := mutationFrame{mutationRequest: req, Version: jobs.PersistVersion, Vertices: g.NumV, Edges: g.NumEdges()}
		s.eng.Append(kindMutation, name, func(b []byte) ([]byte, error) {
			p, err := json.Marshal(frame)
			return append(b, p...), err
		})
	}
	s.graphMu.Unlock()
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	s.mutationsApplied.Add(int64(applied))
	s.stampVersion(w, name)

	// Queue the refinement: an update of the current view's basis, which
	// itself decides whether the graph is still close enough to run warm.
	s.mu.RLock()
	v := s.views[name]
	s.mu.RUnlock()

	var cfg pipeline.Config
	if v != nil {
		cfg.Layout = v.opt
	}
	j, err := s.eng.SubmitSpec(name, cfg, nil, r.Header.Get(obs.RequestIDHeader))
	if err != nil {
		// The mutation itself is applied; only the refinement
		// could not be queued. 429/503 tell the client to retry the
		// layout submission, not the mutation.
		writeErr(w, codeFor(err), fmt.Errorf("mutations applied but refinement not queued: %w", err))
		return
	}

	gen, _ := s.cat.Generation(name)
	writeJSON(w, http.StatusAccepted, map[string]interface{}{
		"graph":      name,
		"applied":    applied,
		"vertices":   next.NumV,
		"generation": gen,
		"job":        j.Status(),
	})
}
