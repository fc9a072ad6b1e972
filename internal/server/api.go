package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/catalog"
	"repro/internal/dyngraph"
	"repro/internal/graph"
	"repro/internal/jobs"
)

// The catalog/jobs REST API. Error discipline (the point of the
// status-code satellite): unknown graph or job ids are 404, malformed
// bodies/options are 400, admission-control rejection is 429, name
// collisions and pinned-graph deletes are 409, over-budget uploads are
// 413, and only genuinely unexpected failures fall through to 500.

// apiError is the JSON error envelope every non-2xx API response uses.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// codeFor maps the catalog/jobs sentinel errors onto HTTP status codes.
func codeFor(err error) int {
	switch {
	case errors.Is(err, catalog.ErrNotFound), errors.Is(err, jobs.ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, jobs.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, catalog.ErrExists), errors.Is(err, catalog.ErrPinned), errors.Is(err, dyngraph.ErrWeighted):
		return http.StatusConflict
	case errors.Is(err, catalog.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, catalog.ErrBadName), errors.As(err, new(badRequest)):
		return http.StatusBadRequest
	case errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// --- /graphs ------------------------------------------------------------

func (s *Server) handleGraphsList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"graphs": s.cat.List(),
		"bytes":  s.cat.Bytes(),
	})
}

// handleGraphUpload registers the request body as a named graph:
// POST /graphs?name=web&format=edges[&weighted=1], body = graph file.
func (s *Server) handleGraphUpload(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing required query parameter: name"))
		return
	}
	format := defaultStr(q.Get("format"), "edges")
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	g, err := graph.Read(body, format, graph.BuildOptions{Weighted: q.Get("weighted") == "1"})
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("upload exceeds %d bytes", s.cfg.MaxUploadBytes))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("parsing %s upload: %w", format, err))
		return
	}
	s.graphMu.Lock()
	err = s.cat.Add(name, g, "upload")
	if err == nil {
		// Best-effort, like every frame: the upload itself has succeeded.
		s.eng.Append(kindGraphPut, name, func(b []byte) ([]byte, error) {
			buf := bytes.NewBuffer(b)
			err := graph.WriteBinary(buf, g)
			return buf.Bytes(), err
		})
	}
	s.graphMu.Unlock()
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	// A name the catalog evicted and now takes back must not inherit the
	// evicted graph's layout.
	s.dropView(name, nil)
	s.stampVersion(w, name)
	writeJSON(w, http.StatusCreated, map[string]interface{}{
		"name":     name,
		"vertices": g.NumV,
		"edges":    g.NumEdges(),
		"bytes":    catalog.GraphBytes(g),
		"weighted": g.Weighted(),
	})
}

func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.graphMu.Lock()
	err := s.cat.Remove(name)
	if err == nil {
		s.eng.Append(kindGraphDelete, name, nil)
	}
	s.graphMu.Unlock()
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	s.dropView(name, nil)
	s.stampVersion(w, name)
	w.WriteHeader(http.StatusNoContent)
}

// --- /jobs --------------------------------------------------------------

// jobRequest is the POST /jobs body. Unknown fields are rejected so a
// typoed option fails loudly (400) instead of running with defaults.
type jobRequest struct {
	Graph string `json:"graph"`
	// Algorithm is accepted for the clients that send it; jobs.Algorithm
	// is its only value.
	Algorithm   string `json:"algorithm"`
	Subspace    int    `json:"subspace"`
	Dims        int    `json:"dims"`
	Seed        uint64 `json:"seed"`
	PlainOrtho  bool   `json:"plainOrtho"`
	SkipQuality bool   `json:"skipQuality"`
}

// validateJobRequest rejects a backend the worker does not run and bounds
// the numeric options so a hostile body cannot request an absurd amount of
// work or trip internal panics.
func validateJobRequest(req jobRequest) error {
	switch {
	case req.Graph == "":
		return errors.New("missing required field: graph")
	case req.Algorithm != "" && req.Algorithm != jobs.Algorithm:
		return fmt.Errorf("unknown algorithm %q (have %s; the paper's baselines run from cmd/parhde -algo and hdebench -exp)",
			req.Algorithm, jobs.Algorithm)
	case req.Subspace < 0 || req.Subspace > 4096:
		return fmt.Errorf("subspace %d out of range [0, 4096]", req.Subspace)
	case req.Dims < 0 || req.Dims > 16:
		return fmt.Errorf("dims %d out of range [0, 16]", req.Dims)
	}
	return nil
}

// badRequest marks a job body that failed decoding or validation.
type badRequest struct{ error }

// decodeJobRequest decodes one live POST /jobs body.
func decodeJobRequest(body io.Reader) (jobRequest, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req jobRequest
	if err := dec.Decode(&req); err != nil {
		return req, badRequest{fmt.Errorf("malformed job request: %w", err)}
	}
	return req, nil
}

// enqueueJob validates and enqueues one job request — from a live POST
// /jobs, or from the journal on restart (recover.go). The intent spec it
// journals is the canonical (validated, re-marshaled) request: if this
// process dies before the job resolves, the restart replays exactly this
// submission.
func (s *Server) enqueueJob(req jobRequest) (*jobs.Job, error) {
	if err := validateJobRequest(req); err != nil {
		return nil, badRequest{err}
	}
	spec, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return s.eng.SubmitSpec(req.Graph, submitConfig(req), spec)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	var j *jobs.Job
	if err == nil {
		j, err = s.enqueueJob(req)
	}
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": s.eng.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.eng.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.eng.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}
