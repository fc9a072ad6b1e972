// Package jobs is the async layout engine: layout requests become
// queued, cancellable, observable jobs instead of work done inline in an
// HTTP handler. A bounded FIFO queue with admission control feeds a
// fixed worker pool; each job runs the full pipeline under a
// context.Context so cancellation interrupts the engine mid-phase and
// mid-BFS-loop. Finished jobs are retained, as their status alone, under a
// TTL + count budget and can optionally be journaled to disk (recover.go),
// and the engine exports queue/state/latency metrics through internal/obs.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workspace"
)

// Defaults for the zero-value Config.
const (
	DefaultQueueDepth = 64
	DefaultResultTTL  = time.Hour
	DefaultMaxResults = 256
)

// Sentinel errors; the HTTP layer maps these onto status codes.
var (
	// ErrQueueFull reports admission-control rejection (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed reports a submit after shutdown began (HTTP 503).
	ErrClosed = errors.New("jobs: engine closed")
	// ErrUnknownJob reports an unknown job id (HTTP 404).
	ErrUnknownJob = errors.New("jobs: unknown job")
)

// runFunc executes one layout; overridable in tests to model slow or
// failing work without building giant graphs.
type runFunc func(ctx context.Context, g *graph.CSR, cfg pipeline.Config) (*pipeline.Result, error)

// Config tunes an Engine. The zero value gets sane defaults.
type Config struct {
	// Workers is the layout worker pool size (0 = GOMAXPROCS). Each
	// layout is internally parallel already, so more workers trade
	// per-job latency for throughput under concurrent load. It also caps
	// the engine's workspaces: one per job running at once.
	Workers int
	// IDPrefix is prepended to every job id. A sharded deployment gives
	// each layout worker a distinct prefix ("w1-" → "w1-j000001") so the
	// router can map a job id back to the process that owns it.
	IDPrefix string
	// QueueDepth bounds the jobs waiting for a worker; submissions
	// beyond it are rejected with ErrQueueFull (0 = DefaultQueueDepth).
	QueueDepth int
	// ResultTTL is how long finished jobs stay queryable
	// (0 = DefaultResultTTL, negative = forever).
	ResultTTL time.Duration
	// MaxResults caps retained finished jobs; the oldest are dropped
	// first (0 = DefaultMaxResults, negative = unbounded).
	MaxResults int
	// Journal, when non-nil, is the worker's opened journal (OpenJournal):
	// it gets one appended frame per accepted submission, per finished job
	// (status, phase timings, coordinates) and per failed or cancelled
	// one, and the engine closes it.
	Journal *Journal
	// Metrics receives queue/state/latency series (nil = private registry).
	Metrics *obs.Registry
	// OnDone, when non-nil, runs after every terminal transition, from
	// the worker goroutine (the server uses it to install fresh layouts).
	// It gets the job's payload: its input graph, its config and its
	// result (nil unless the job is done; the layout is the caller's). The
	// job drops all three when OnDone returns.
	OnDone func(j *Job, g *graph.CSR, cfg pipeline.Config, res *pipeline.Result)
	// Logger receives the engine's journal warnings (nil = obs.Discard).
	Logger *slog.Logger

	run runFunc // test seam; nil = pipeline.RunCtx
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.ResultTTL == 0 {
		c.ResultTTL = DefaultResultTTL
	}
	if c.MaxResults == 0 {
		c.MaxResults = DefaultMaxResults
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = obs.Discard()
	}
	if c.run == nil {
		c.run = pipeline.RunCtx
	}
	return c
}

// Engine runs layout jobs over a catalog of graphs.
type Engine struct {
	cat *catalog.Catalog
	cfg Config
	// kernelWorkers is the per-layout kernel worker budget
	// (core.Options.Workers) applied to jobs that don't set their own:
	// max(1, GOMAXPROCS / Workers) at New, so with the pool saturated
	// Workers × kernelWorkers goroutines ≈ GOMAXPROCS, instead of the P²
	// oversubscription of every layout fanning its kernels out
	// GOMAXPROCS-wide.
	kernelWorkers int

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	// free holds the workspaces no job is running on, Workers slots: a
	// job takes one or makes one, and puts it back when it finishes, so
	// the engine holds one workspace per job that ran at once, never more
	// than Workers, and a sequential job stream warms exactly one.
	free chan *workspace.Workspace
	wg   sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	seq      int64
	jobs     map[string]*Job
	finished []string // terminal job ids in completion order, for purging

	jrn     *journal.Journal // cfg.Journal's file; closed (the zero Journal) without one
	pending []Intent         // what the journal left unresolved at start-up

	submitted     *obs.Counter
	rejected      *obs.Counter
	byState       map[State]*obs.Counter
	running       *obs.Gauge
	latency       *obs.Histogram
	journalErrs   *obs.Counter
	appendSeconds *obs.Histogram
}

// New starts an engine with cfg.Workers workers resolving graph names
// against cat. Call Close to stop it.
func New(cat *catalog.Catalog, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cat:        cat,
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, cfg.QueueDepth),
		free:       make(chan *workspace.Workspace, cfg.Workers),
		jobs:       map[string]*Job{},
		jrn:        new(journal.Journal),
		submitted:  cfg.Metrics.Counter("jobs_submitted_total"),
		rejected:   cfg.Metrics.Counter("jobs_rejected_total"),
		running:    cfg.Metrics.Gauge("jobs_running"),
		latency:    cfg.Metrics.Histogram("job_duration_seconds"),
		// Every frame that should be in the journal and is not; appends
		// are timed whole: payload copy, checksum and write.
		journalErrs:   cfg.Metrics.Counter("jobs_journal_errors_total"),
		appendSeconds: cfg.Metrics.Histogram("jobs_journal_append_seconds"),
		byState: map[State]*obs.Counter{
			StateDone:      cfg.Metrics.Counter(`jobs_finished_total{state="done"}`),
			StateFailed:    cfg.Metrics.Counter(`jobs_finished_total{state="failed"}`),
			StateCancelled: cfg.Metrics.Counter(`jobs_finished_total{state="cancelled"}`),
		},
	}
	e.kernelWorkers = max(1, runtime.GOMAXPROCS(0)/cfg.Workers)
	cfg.Metrics.GaugeFunc("jobs_queue_depth", func() float64 { return float64(len(e.queue)) })
	cfg.Metrics.GaugeFunc("jobs_journal_bytes", func() float64 { return float64(e.jrn.Size()) })
	if j := cfg.Journal; j != nil {
		e.jrn, e.seq, e.pending = j.file, j.snap.Seq, j.snap.Pending
		for _, err := range j.snap.Errs {
			cfg.Logger.Warn("reading the journal", "err", err)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// KernelWorkers is the worker budget of one layout's kernels on this
// engine, max(1, GOMAXPROCS / Workers) when it was made: what work
// sharing the machine with the pool, such as an upload's parse and build,
// runs on.
func (e *Engine) KernelWorkers() int {
	return e.kernelWorkers
}

// SubmitSpec enqueues a layout of the named catalog graph. It resolves
// the graph immediately (so a later eviction cannot break a queued job)
// and rejects with ErrQueueFull when the queue is saturated. spec is a
// self-contained, re-parseable description of the request (the validated
// API body, typically) and requestID the ID of the request that asked for
// the job, which its status reports. With a
// journal the spec and the ID are journaled as an intent frame before the
// submission returns, so a worker that dies mid-run can recover the job,
// under the same request ID, on restart (see Pending). A nil spec submits
// without an intent: the job runs normally but is not crash-recoverable.
func (e *Engine) SubmitSpec(graphName string, cfg pipeline.Config, spec []byte, requestID string) (*Job, error) {
	g, ok := e.cat.Get(graphName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", catalog.ErrNotFound, graphName)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	e.purgeLocked()
	e.seq++
	ctx, cancel := context.WithCancel(e.baseCtx)
	j := &Job{
		id:        fmt.Sprintf("%sj%06d", e.cfg.IDPrefix, e.seq),
		graph:     graphName,
		requestID: requestID,
		g:         g,
		spec:      spec,
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		created:   time.Now(),
	}
	select {
	case e.queue <- j:
		// Journal the intent before SubmitSpec returns: once the caller holds
		// a 202, the job either completes or survives as a pending intent.
		// (One small write under e.mu — submissions are not a hot path.)
		if spec != nil {
			e.record(kindIntent, j.id, Intent{Version: PersistVersion, ID: j.id, Graph: graphName,
				RequestID: requestID, Spec: spec, Created: j.created}, nil)
		}
		e.jobs[j.id] = j
		e.submitted.Inc()
		return j, nil
	default:
		cancel()
		e.rejected.Inc()
		return nil, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, len(e.queue))
	}
}

// Get returns the job with the given id.
func (e *Engine) Get(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.purgeLocked()
	j, ok := e.jobs[id]
	return j, ok
}

// List returns a snapshot of every retained job, oldest first.
func (e *Engine) List() []Status {
	e.mu.Lock()
	e.purgeLocked()
	js := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		js = append(js, j)
	}
	e.mu.Unlock()
	sort.Slice(js, func(i, k int) bool { return js[i].id < js[k].id })
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = j.Status()
	}
	return out
}

// Cancel requests cancellation of the job with the given id. A queued
// job flips to Cancelled immediately; a running job stops at its next
// context check and flips when its worker observes the cancellation.
// Cancelling a finished job is a no-op.
func (e *Engine) Cancel(id string) (*Job, error) {
	j, ok := e.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	// Mark this as an explicit caller cancellation before the context
	// fires: finalize distinguishes it from a shutdown-time cancellation,
	// which must leave the job's intent unresolved for restart recovery.
	j.mu.Lock()
	j.userCancel = true
	j.mu.Unlock()
	// Queued → cancelled shortcut: if no worker has started the job,
	// finish it here so its state is visible immediately and the worker
	// skips it on dequeue. A running job is only finished by its worker,
	// which observes the context cancellation below.
	if j.cancelQueued() {
		e.finalize(j, nil, false)
	}
	j.cancel()
	return j, nil
}

// Close stops accepting jobs, cancels everything queued or running, and
// waits for the workers to exit. It is safe to call more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()
	e.baseCancel()
	e.wg.Wait()
	e.jrn.Close() // after the last worker's last frame
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.runJob(j)
	}
}

// runJob runs j on a workspace from the free list: consecutive
// same-shaped layouts reuse warm buffers, and the steady state performs no
// O(n)-sized allocations. The handoff is one channel operation each way
// per job; the run itself owns the workspace and takes no lock on it.
func (e *Engine) runJob(j *Job) {
	var ws *workspace.Workspace
	select {
	case ws = <-e.free:
	default:
		ws = workspace.New()
	}
	ws.Clock.Reset() // the last job's phase is not this one's
	if !j.begin(&ws.Clock) {
		// Cancelled while queued; Cancel already finalized it.
		e.free <- ws
		return
	}
	e.running.Add(1)
	// Work on a copy of the config: the workspace is a per-run
	// attachment, not part of the submitted configuration.
	cfg := j.cfg
	cfg.Layout.Workspace = ws
	// Cap each layout's kernel fan-out so Workers concurrent jobs don't
	// oversubscribe the machine; a job that set its own budget keeps it.
	if cfg.Layout.Workers <= 0 {
		cfg.Layout.Workers = e.kernelWorkers
	}
	res, err := e.cfg.run(j.ctx, j.g, cfg)
	e.running.Add(-1)
	state := StateDone
	switch {
	case err == nil:
		// The layout aliases the workspace and is only valid until the
		// workspace's next job; deep-copy it for OnDone to keep.
		if res != nil && res.Layout != nil {
			res.Layout = res.Layout.Clone()
		}
	case j.ctx.Err() != nil:
		state, res = StateCancelled, nil
	default:
		state, res = StateFailed, nil
	}
	j.finish(state, res, err)
	// The layout is cloned and finish detached the job from the clock:
	// nothing of this job refers to the workspace any more, so the next
	// job may take it while this one is journaled and installed. The send
	// never blocks: each worker holds at most one of the ≤ Workers
	// workspaces, so the list always has a free slot.
	e.free <- ws
	e.finalize(j, res, true)
}

// finalize records metrics, persistence, and the OnDone hook for a job
// that just reached a terminal state with result res (nil unless done),
// then drops the job's payload. ran says a worker executed it (so the
// latency histogram only sees real runs, not queue-cancelled jobs).
func (e *Engine) finalize(j *Job, res *pipeline.Result, ran bool) {
	j.mu.Lock()
	state := j.state
	dur := j.finished.Sub(j.started)
	userCancel := j.userCancel
	g, cfg, spec := j.g, j.cfg, j.spec
	j.mu.Unlock()
	if c, ok := e.byState[state]; ok {
		c.Inc()
	}
	if ran {
		e.latency.ObserveDuration(dur)
	}
	e.mu.Lock()
	e.finished = append(e.finished, j.id)
	e.mu.Unlock()
	// Resolve the job in the journal: a result frame for a finished layout,
	// a retire frame for any other outcome the operator asked for (failed,
	// or explicitly cancelled). The one exception is a shutdown-time
	// cancellation — the job was interrupted, not resolved — whose intent
	// must stay pending for restart recovery.
	if state == StateDone && res != nil && res.Layout != nil {
		rec := Record{Version: PersistVersion, Status: j.Status(), Quality: res.Quality, Dims: res.Layout.Dims()}
		if _, err := json.Marshal(rec.Quality); err != nil {
			rec.Quality = nil // a NaN metric must not cost the job its coordinates
		}
		e.record(kindResult, j.id, rec, res.Layout.Coords.Data)
	} else if spec != nil && (state != StateCancelled || userCancel) {
		e.record(kindRetire, j.id, nil, nil)
	}
	if e.cfg.OnDone != nil {
		e.cfg.OnDone(j, g, cfg, res)
	}
	// The result is journaled and handed on: from here the job is its
	// status, and a retained job pins no graph version, layout or basis.
	j.mu.Lock()
	j.g, j.cfg, j.spec = nil, pipeline.Config{}, nil
	j.mu.Unlock()
	j.cancel() // release the context's resources
}

// purgeLocked drops finished jobs past the TTL and beyond the retained
// count budget, oldest first. Caller holds e.mu.
func (e *Engine) purgeLocked() {
	ttl := e.cfg.ResultTTL
	now := time.Now()
	keep := e.finished[:0]
	for i, id := range e.finished {
		j, ok := e.jobs[id]
		if !ok {
			continue
		}
		excess := e.cfg.MaxResults > 0 && len(e.finished)-i > e.cfg.MaxResults
		expired := ttl > 0 && now.Sub(j.finishedAt()) > ttl
		if excess || expired {
			delete(e.jobs, id)
			continue
		}
		keep = append(keep, id)
	}
	e.finished = keep
}

// finishedAt returns the terminal timestamp (zero if still active).
func (j *Job) finishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}
