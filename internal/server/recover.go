package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/catalog"
	"repro/internal/jobs"
)

// Worker restart recovery. A layout worker's durable state is its
// DataDir: graph snapshots under graphs/ (written on upload) and the jobs
// engine's journal. recoverState replays both at startup — graphs back
// into the catalog first, then every intent the journal leaves unresolved
// resubmitted through the same validation path as a live POST /jobs — so
// a worker that dies mid-job comes back owning the same shard with the
// interrupted work re-queued. Mutation-refinement jobs are the deliberate
// exception: their prior layout died with the process, so they are not
// journaled and a PATCH-heavy client re-drives them (see OPERATIONS.md).

// graphsDir is where uploaded graph snapshots live inside DataDir.
func (s *Server) graphsDir() string {
	return filepath.Join(s.cfg.DataDir, "graphs")
}

// logf writes a server-level (non-access) log line when logging is on.
func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.AccessLog != nil {
		s.cfg.AccessLog.Printf("server: "+format, args...)
	}
}

// recoverState rebuilds this worker's shard from DataDir; errors are
// logged, never fatal — a corrupt snapshot must not keep the worker down.
func (s *Server) recoverState() {
	restored, errs := s.cat.LoadDir(s.graphsDir())
	for _, err := range errs {
		s.logf("restoring graphs: %v", err)
	}
	if len(restored) > 0 {
		s.logf("restored %d graph(s) from %s", len(restored), s.graphsDir())
	}

	for _, in := range s.eng.Pending() {
		if s.resubmitIntent(in) {
			// The resubmission journaled a fresh intent under its new id;
			// retiring the old one makes replay idempotent.
			s.eng.Retire(in.ID)
		}
	}
}

// journaledRequest is a jobRequest as any version of this worker journaled
// it. Before POST /jobs stopped routing the baselines and the refinement
// post-pass, every canonical spec carried "refineSweeps" — zero on all but
// the jobs that asked for the pass — so the key must decode, not 400.
type journaledRequest struct {
	jobRequest
	LegacyRefine int `json:"refineSweeps"`
}

// resubmitIntent replays one journaled submission through the validation a
// live POST /jobs gets. It reports whether the old intent should be
// retired: true on success and on permanent failures (a spec that no longer
// validates or asks for a closed route, a vanished graph), false on
// transient ones (queue full) so the next restart tries again.
func (s *Server) resubmitIntent(in jobs.Intent) bool {
	var req journaledRequest
	var j *jobs.Job
	err := json.Unmarshal(in.Spec, &req)
	switch {
	case err != nil:
		err = badRequest{fmt.Errorf("malformed job request: %w", err)}
	case req.LegacyRefine != 0:
		err = badRequest{fmt.Errorf("refineSweeps %d: the post-pass is no longer routed (cmd/parhde -refine)", req.LegacyRefine)}
	default:
		j, err = s.enqueueJob(req.jobRequest)
	}
	if err == nil {
		s.logf("recovered job %s as %s (graph %q)", in.ID, j.ID(), j.Graph())
		return true
	}
	permanent := errors.Is(err, catalog.ErrNotFound) || errors.As(err, new(badRequest))
	s.logf("intent %s not replayed (dropped for good: %v): %v", in.ID, permanent, err)
	return permanent
}
