package jobs

import (
	"context"
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/phase"
	"repro/internal/pipeline"
)

// State is a job's position in its lifecycle. Transitions only move
// forward: Queued → Running → one of the terminal states, or Queued →
// Cancelled directly when a job is cancelled before a worker picks it up.
type State int

const (
	// StateQueued means the job waits in the queue for a worker.
	StateQueued State = iota
	// StateRunning means a worker is computing the layout now.
	StateRunning
	// StateDone means the job finished and its result is available.
	StateDone
	// StateFailed means the pipeline returned an error (kept in Status).
	StateFailed
	// StateCancelled means the job was cancelled before or during a run.
	StateCancelled
)

// String spells the state the way the HTTP API reports it.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// terminal reports whether no further transition is allowed.
func (s State) terminal() bool { return s >= StateDone }

// Algorithm is the one layout backend the engine runs (cold, or warm when
// the job carries a basis). It stays in Status and in journaled result
// frames because both are read by clients that predate the single backend.
const Algorithm = "parhde"

// PhaseSeconds is one per-phase timing entry of a finished job's report.
type PhaseSeconds struct {
	Name    string  `json:"name"`    // phase id, e.g. "bfs_traversal"
	Seconds float64 `json:"seconds"` // cumulative wall time in seconds
}

// Status is a point-in-time snapshot of a job, shaped for JSON.
type Status struct {
	ID        string `json:"id"`        // engine-assigned job id
	Graph     string `json:"graph"`     // catalog name of the input graph
	Algorithm string `json:"algorithm"` // always Algorithm
	State     string `json:"state"`     // State.String() of the snapshot
	// RequestID is the X-Request-Id of the request that submitted the job
	// (a POST /jobs, or the PATCH that queued a refinement).
	RequestID string `json:"requestId,omitempty"`
	// Phase is the phase the run is in, one of the Phases names or
	// "quality" (running jobs only).
	Phase string `json:"phase,omitempty"`
	// Error carries the failure message of a StateFailed job.
	Error string `json:"error,omitempty"`
	// Created, Started, and Finished are the lifecycle timestamps;
	// Started and Finished are nil until the transition happens.
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`  // nil while queued
	Finished *time.Time `json:"finished,omitempty"` // nil until terminal
	// ElapsedSeconds is run time so far (running) or total (terminal).
	ElapsedSeconds float64 `json:"elapsedSeconds"`
	// Phases is the core.Breakdown per-phase split, present once done.
	Phases []PhaseSeconds `json:"phases,omitempty"`
}

// Job is one queued/running/finished layout request. All mutable fields
// are guarded by mu; Status() takes consistent snapshots for the API.
type Job struct {
	id        string
	graph     string // catalog name, for display
	requestID string // ID of the request that submitted it
	// g, cfg and spec are the payload: the input, the submitted config and
	// the re-parseable request body journaled as the intent frame. finalize
	// hands g and cfg to OnDone and then drops all three, so a finished job
	// holds only what Status reads.
	g    *graph.CSR
	cfg  pipeline.Config
	spec []byte

	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	state State
	// clock is a Running job's workspace clock, whose live phase Status reports.
	clock    *phase.Clock
	err      error
	phases   []PhaseSeconds // the report's split, set when the job is done
	created  time.Time
	started  time.Time
	finished time.Time
	// userCancel marks an explicit Cancel call (as opposed to the engine
	// shutting down); only user-cancelled jobs retire their intent.
	userCancel bool
}

// ID returns the job's engine-assigned identifier.
func (j *Job) ID() string { return j.id }

// Graph returns the catalog name the job was submitted against.
func (j *Job) Graph() string { return j.graph }

// RequestID returns the ID of the request that submitted the job.
func (j *Job) RequestID() string { return j.requestID }

// begin moves the job to Running, timed on clk. It returns false if the
// job reached a terminal state first (cancelled while queued).
func (j *Job) begin(clk *phase.Clock) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.state = StateRunning
	j.clock = clk
	j.started = time.Now()
	return true
}

// finish moves the job to a terminal state, keeping res's phase split
// (res is nil unless the job is done); later calls are no-ops so a racing
// Cancel cannot overwrite a completed result.
func (j *Job) finish(s State, res *pipeline.Result, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.state = s
	if res != nil {
		ps := res.Report.Breakdown.Phases()
		j.phases = make([]PhaseSeconds, len(ps))
		for i, p := range ps {
			j.phases[i] = PhaseSeconds{Name: p.Name, Seconds: p.D.Seconds()}
		}
	}
	j.err = err
	j.clock = nil
	j.finished = time.Now()
	return true
}

// cancelQueued finishes the job as Cancelled only if it is still waiting
// for a worker; running and finished jobs are left untouched.
func (j *Job) cancelQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateCancelled
	j.err = context.Canceled
	j.finished = time.Now()
	return true
}

// Status returns a consistent snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.id,
		Graph:     j.graph,
		Algorithm: Algorithm,
		State:     j.state.String(),
		RequestID: j.requestID,
		Created:   j.created,
	}
	if j.clock != nil {
		st.Phase = j.clock.Live()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
		switch {
		case !j.finished.IsZero():
			st.ElapsedSeconds = j.finished.Sub(j.started).Seconds()
		default:
			st.ElapsedSeconds = time.Since(j.started).Seconds()
		}
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	st.Phases = slices.Clone(j.phases)
	return st
}
