// Package pipeline is the one layout path the serving tier and the
// benchmark drive: ParHDE (cold, or warm when Layout.Basis serves) plus
// the optional quality evaluation. The paper's baselines (PHDE, PivotMDS,
// the prior-work code) are reached through cmd/parhde -algo and
// hdebench -exp, which call internal/core directly.
package pipeline

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/phase"
)

// Config bundles one end-to-end run.
type Config struct {
	// Layout passes through to core.ParHDECtx (subspace dimension, pivots,
	// orthogonalization, seed, …). A result computed on Layout.Workspace
	// aliases workspace storage, so callers that retain it across runs
	// must Clone it first (see internal/workspace).
	Layout core.Options
	// SkipQuality suppresses the quality evaluation (it costs a pass over
	// the edges; benchmarks may not want it).
	SkipQuality bool
}

// Result is everything a run produced.
type Result struct {
	Layout  *core.Layout
	Report  *core.Report
	Quality core.Quality // zero value when SkipQuality
}

// RunCtx lays out g according to cfg with cooperative cancellation: ctx
// is checked at every phase boundary and before every traversal of the
// BFS pivot loop. On cancellation the returned error satisfies
// errors.Is(err, ctx.Err()).
func RunCtx(ctx context.Context, g *graph.CSR, cfg Config) (*Result, error) {
	res := &Result{}
	var err error
	res.Layout, res.Report, err = core.ParHDECtx(ctx, g, cfg.Layout)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: parhde: %w", err)
	}
	if !cfg.SkipQuality {
		if ws := cfg.Layout.Workspace; ws != nil {
			ws.Clock.Enter(phase.Quality) // the run's clock, after its Breakdown was read
		}
		res.Quality = core.Evaluate(g, res.Layout)
	}
	return res, nil
}
