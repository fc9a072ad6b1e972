package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/catalog"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/parallel"
)

// Worker restart recovery. A layout worker's durable state is one file,
// DataDir's journal (internal/journal, opened by jobs.OpenJournal). The job
// engine keeps its intent, result and retire frames in it; this file keeps
// the catalog's: one frame per accepted upload, per DELETE and per applied
// PATCH, keyed by graph name, each appended — under graphMu, so file order
// is the order the catalog changed in — through the engine's one append
// path. A restart replays the graph frames in that order through the code
// a live request runs, then resubmits every intent the journal leaves
// unresolved through the validation of a live POST /jobs, so a worker that
// dies comes back owning the same graphs, PATCHes included, with the
// interrupted work re-queued. Mutation-refinement jobs are the deliberate
// exception: the basis they update died with the process, so they carry no
// intent and the next layout of a patched graph is a cold one (see
// OPERATIONS.md).

// The journal's frame kinds that are the catalog's (the engine's are
// i, r and x).
const (
	kindGraphPut    byte = 'g' // payload: the graph, as graph.WriteBinary writes it
	kindGraphDelete byte = 'd' // no payload
	kindMutation    byte = 'm' // payload: mutationFrame JSON
)

// mutationFrame is a journaled PATCH: the validated request re-marshaled,
// so wire format and recovery format are the same bytes, plus the size of
// the graph the batch was applied to. A batch meant for another graph (the
// worker restarted on a different -in) is refused at replay, not applied to
// whatever now has the name.
type mutationFrame struct {
	mutationRequest
	Version  int   `json:"version"` // jobs.PersistVersion it was written with
	Vertices int   `json:"vertices"`
	Edges    int64 `json:"edges"`
}

// replayGraphFrame applies one journaled catalog change at start-up, before
// the engine exists. A frame that cannot be applied is logged and skipped:
// one corrupt upload must not keep the rest of the shard down.
func (s *Server) replayGraphFrame(f journal.Frame) {
	var err error
	switch f.Kind {
	case kindGraphPut:
		// No job runs yet, so the load has the whole machine. The frame's
		// checksum proves its bytes, not its graph: ReadBinary validates it.
		var g *graph.CSR
		if g, err = graph.ReadBinary(bytes.NewReader(f.Payload), parallel.Live()); err == nil {
			// A live upload only succeeds on a free name, so a put that
			// meets an entry here follows an eviction the journal never saw.
			_ = s.cat.Remove(f.Key)
			err = s.cat.Add(f.Key, g, "journal")
		}
	case kindGraphDelete:
		if err = s.cat.Remove(f.Key); errors.Is(err, catalog.ErrNotFound) {
			err = nil // evicted before it was deleted
		}
	case kindMutation:
		var m mutationFrame
		if err = json.Unmarshal(f.Payload, &m); err == nil {
			err = s.replayMutation(f.Key, m)
		}
	default:
		err = errors.New("unknown frame kind")
	}
	if err != nil {
		s.cfg.Logger.Warn("journal frame not replayed", "kind", string(f.Kind), "graph", f.Key, "err", err)
	}
}

// replayMutation re-applies one journaled batch if the graph it meets is
// the one it was applied to.
func (s *Server) replayMutation(name string, m mutationFrame) error {
	g, ok := s.cat.Get(name)
	switch {
	case m.Version > jobs.PersistVersion:
		return fmt.Errorf("schema version %d, newer than supported %d", m.Version, jobs.PersistVersion)
	case !ok:
		return fmt.Errorf("%w: %q", catalog.ErrNotFound, name)
	case g.NumV != m.Vertices || g.NumEdges() != m.Edges:
		return fmt.Errorf("batch was applied to %d vertices and %d edges, the graph here has %d and %d",
			m.Vertices, m.Edges, g.NumV, g.NumEdges())
	}
	_, _, err := s.mutateGraph(name, g, m.Mutations)
	return err
}

// openJournal opens DataDir's journal for the engine; the scan that opens
// it rebuilds this worker's shard of the catalog on the way.
func (s *Server) openJournal() *jobs.Journal {
	old := filepath.Join(s.cfg.DataDir, "graphs")
	if _, err := os.Stat(old); err == nil {
		s.cfg.Logger.Warn("directory of an older version is ignored: uploads and PATCHes are journal frames now", "path", old)
	}
	return jobs.OpenJournal(s.cfg.DataDir, s.replayGraphFrame)
}

// resubmitPending replays what the journal left unresolved at start-up.
func (s *Server) resubmitPending() {
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
// the jobs that asked for the pass — so the key must decode, not 400. A key
// that no longer selects anything, such as "coupled", is skipped by
// json.Unmarshal and the job replays.
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
		j, err = s.enqueueJob(req.jobRequest, in.RequestID)
	}
	if err == nil {
		s.cfg.Logger.Info("recovered job", "intent", in.ID, "job", j.ID(), "graph", j.Graph(), "requestId", in.RequestID)
		return true
	}
	permanent := errors.Is(err, catalog.ErrNotFound) || errors.As(err, new(badRequest))
	s.cfg.Logger.Warn("intent not replayed", "intent", in.ID, "droppedForGood", permanent, "requestId", in.RequestID, "err", err)
	return permanent
}
