// Package phase is the one clock a layout is timed by. The run calls
// Enter at each phase boundary, which charges the time since the last
// boundary to the phase it leaves, so every instant of the run is charged
// to exactly one phase and the phases sum to its wall time. core.Report's
// Breakdown, a job's live phase and the parhde_phase_seconds gauges are
// all read off one clock.
package phase

import (
	"sync/atomic"
	"time"
)

// ID names a phase. All but Quality, the pipeline's post-layout
// evaluation, are core.Breakdown's phases, in its order.
type ID int32

const (
	BFSTraversal ID = iota // the traversals (or SSSP)
	BFSOther               // source selection, min-update, widening, reachability
	DOrtho                 // (D-)orthogonalization, diag(D) included
	LS                     // TripleProd step 1: P = L·S
	Gemm                   // TripleProd step 2: Z = SᵀP
	Eigensolve             // the projected eigenproblem
	Project                // the projection [x, y] = S·Y
	Centering              // PHDE column / PivotMDS double centering
	LapBuild               // the prior baseline's explicit Laplacian
	WarmRefine             // a warm update of a basis
	Quality                // the pipeline's quality evaluation
)

var names = [...]string{"bfs_traversal", "bfs_other", "dortho", "ls", "gemm",
	"eigensolve", "project", "centering", "lap_build", "warm_refine", "quality"}

// String returns the phase's name, e.g. "bfs_traversal".
func (p ID) String() string { return names[p] }

// Clock times one run at a time; its zero value is idle. Only the run's
// goroutine calls its methods, except Live.
type Clock struct {
	d     [len(names)]time.Duration
	start time.Time // the run's first Enter; zero while idle
	mark  time.Time // the open phase's last boundary; zero while none is open
	cur   ID
	live  atomic.Int32 // cur+1, or 0 while idle
}

// Reset makes c idle: its next Enter starts a new run.
func (c *Clock) Reset() {
	c.d, c.start, c.mark = [len(names)]time.Duration{}, time.Time{}, time.Time{}
	c.live.Store(0)
}

// Enter ends the open phase here and enters p. It returns the span it
// charged to the phase it ended (0 when none was open).
func (c *Clock) Enter(p ID) (span time.Duration) {
	now := time.Now()
	if c.start.IsZero() {
		c.start = now
	} else if !c.mark.IsZero() {
		span = now.Sub(c.mark)
		c.d[c.cur] += span
	}
	c.cur, c.mark = p, now
	c.live.Store(int32(p) + 1)
	return span
}

// Move recharges d of phase from's time to phase to, for a span that
// holds two phases no boundary separates.
func (c *Clock) Move(from, to ID, d time.Duration) {
	c.d[from] -= d
	c.d[to] += d
}

// Drop discards the time charged so far, the open phase's included, for a
// run that abandons what it did; the run's wall time still counts it.
func (c *Clock) Drop() { c.d, c.mark = [len(names)]time.Duration{}, time.Time{} }

// Read charges the open phase up to now, without ending it, and returns
// each phase's time and the run's wall time, their sum unless Drop ran.
func (c *Clock) Read() (d [len(names)]time.Duration, total time.Duration) {
	c.Enter(c.cur)
	return c.d, c.mark.Sub(c.start)
}

// Live returns the name of the phase the run is in, or "" while idle. Any
// goroutine may call it.
func (c *Clock) Live() string {
	if p := c.live.Load(); p > 0 {
		return names[p-1]
	}
	return ""
}
