package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/dyngraph"
	"repro/internal/pipeline"
)

// PATCH /graphs/{name}: apply a batch of mutations to a (possibly
// just-promoted) dynamic graph, refresh the catalog snapshot, and queue a
// refinement layout. The response is 202 with the queued job — mutations
// apply immediately (and are visible to /graphs and future jobs), the
// picture catches up when the refinement installs and streams its delta.

// maxMutationBody bounds one PATCH body.
const maxMutationBody = 8 << 20

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
	for i, op := range ops {
		m := dyngraph.Mutation{U: op.U, V: op.V, Count: op.Count}
		switch op.Op {
		case "addEdge":
			m.Op = dyngraph.AddEdge
		case "delEdge":
			m.Op = dyngraph.DelEdge
		case "addVertices":
			m.Op = dyngraph.AddVertices
		case "delVertex":
			m.Op = dyngraph.DelVertex
		default:
			return nil, fmt.Errorf("mutation %d: unknown op %q (have addEdge, delEdge, addVertices, delVertex)", i, op.Op)
		}
		out[i] = m
	}
	return out, nil
}

// handleGraphMutate is PATCH /graphs/{name}.
func (s *Server) handleGraphMutate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutationBody))
	dec.DisallowUnknownFields()
	var req mutationRequest
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("malformed mutation request: %w", err))
		return
	}
	batch, err := decodeMutations(req.Mutations)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	d, err := s.cat.Promote(name, dyngraph.Options{})
	if err != nil {
		if errors.Is(err, dyngraph.ErrWeighted) {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeErr(w, codeFor(err), err)
		return
	}
	res, err := d.Apply(batch)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Fold the delta into the catalog snapshot so this and every later
	// layout job runs against the mutated graph, and so the entry's
	// generation (part of every render-cache key) moves past any cached
	// tile of the old graph.
	if _, _, err := s.cat.Refresh(name); err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	s.mutationsApplied.Add(int64(res.Applied))
	s.stampVersion(w, name)

	// Queue the refinement. The accumulated not-yet-installed delta rides
	// along as the warm-start staleness input; the current view's layout
	// (if any) is the prior.
	s.mu.Lock()
	s.pending[name] += int64(res.Applied)
	delta := s.pending[name]
	v := s.views[name]
	s.mu.Unlock()

	var cfg pipeline.Config
	if v != nil {
		cfg.Layout = v.opt
		cfg.Layout.Prior = v.layout
		cfg.Layout.PriorDeltaEdges = delta
	}
	j, err := s.eng.Submit(name, cfg)
	if err != nil {
		// The mutation itself is applied; only the refinement
		// could not be queued. 429/503 tell the client to retry the (now
		// delta-free) layout submission, not the mutation.
		writeErr(w, codeFor(err), fmt.Errorf("mutations applied but refinement not queued: %w", err))
		return
	}
	s.mu.Lock()
	s.jobDelta[j.ID()] = delta
	s.mu.Unlock()

	gen, _ := s.cat.Generation(name)
	writeJSON(w, http.StatusAccepted, map[string]interface{}{
		"graph":      name,
		"applied":    res.Applied,
		"vertices":   res.NumV,
		"generation": gen,
		"job":        j.Status(),
	})
}
