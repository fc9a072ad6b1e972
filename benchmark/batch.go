package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/pivot"
	"repro/internal/workspace"
)

// setupOp is the Op id of spans recorded during set-up.
const setupOp = -1

// readInput is the first two set-up stages of every workload: parse the
// edge list on disk and take the largest component.
func readInput(path string, tr *tracer) (*graph.CSR, error) {
	sp := tr.begin("graph.read", -1, setupOp)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	g, err := graph.Read(f, "edges", graph.BuildOptions{KeepAllComponents: true})
	f.Close()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	sp = tr.begin("graph.lcc", -1, setupOp)
	g = graph.LargestComponent(g)
	tr.end(sp)
	return g, nil
}

// layoutHasher checksums layouts without allocating per op.
type layoutHasher struct {
	h   hash.Hash
	buf [8 * 512]byte
}

func newLayoutHasher() *layoutHasher { return &layoutHasher{h: sha256.New()} }

// sum returns the SHA-256 of the coordinates' bit patterns and whether
// every coordinate is finite.
func (lh *layoutHasher) sum(l *core.Layout) (sum [sha256.Size]byte, finite bool) {
	lh.h.Reset()
	finite = true
	data := l.Coords.Data
	for len(data) > 0 {
		chunk := data
		if len(chunk) > len(lh.buf)/8 {
			chunk = chunk[:len(lh.buf)/8]
		}
		for i, v := range chunk {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
			binary.LittleEndian.PutUint64(lh.buf[8*i:], math.Float64bits(v))
		}
		lh.h.Write(lh.buf[:8*len(chunk)])
		data = data[len(chunk):]
	}
	lh.h.Sum(sum[:0])
	return sum, finite
}

// batchState is a batch workload after set-up: the graph, the reused
// workspace, and the reference every op is checked against.
type batchState struct {
	sp  *spec
	g   *graph.CSR
	ws  *workspace.Workspace
	cfg pipeline.Config // Workers:1, the gated configuration

	hasher *layoutHasher
	ref    *reference

	// Trace-run bookkeeping, filled by the ops.
	wsBytes    uint64           // bytes a fresh Reshape allocated
	lastStats  pivot.PhaseStats // BFS counters of the last staged op
	lastKept   int
	totalsMs   []float64 // Report.Breakdown.Total per untraced op
	reportsMs  map[string][]float64
	overheadMs []float64 // RunCtx wall − Breakdown.Total
}

// reference is the layout every op of a run must reproduce bit for bit.
type reference struct {
	sum  [sha256.Size]byte
	hall float64
}

func (sp *spec) layoutOptions(seed uint64, workers int) core.Options {
	return core.Options{Subspace: sp.subspace, Pivots: sp.pivots, Seed: seed, Workers: workers}
}

// setupBatch goes from the input file to the first cold layout sitting in
// a warm workspace — everything a steady-state op relies on.
func setupBatch(sp *spec, path string, seed uint64, tr *tracer) (*batchState, error) {
	g, err := readInput(path, tr)
	if err != nil {
		return nil, err
	}
	st := &batchState{
		sp: sp, g: g, hasher: newLayoutHasher(),
		cfg:       pipeline.Config{Layout: sp.layoutOptions(seed, 1), SkipQuality: true},
		reportsMs: map[string][]float64{},
	}
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	id := tr.begin("workspace.reshape", -1, setupOp)
	st.ws = workspace.New()
	st.ws.Reshape(g.NumV, sp.subspace, 2)
	tr.end(id)
	if tr != nil {
		runtime.ReadMemStats(&after)
		st.wsBytes = after.TotalAlloc - before.TotalAlloc
	}
	st.cfg.Layout.Workspace = st.ws
	if _, err := pipeline.RunCtx(context.Background(), g, st.cfg); err != nil {
		return nil, fmt.Errorf("first cold layout: %w", err)
	}
	return st, nil
}

func (st *batchState) close() {}

// reference computes the run's reference layout through the path the ops
// do not take (fresh allocations, two workers) and holds its quality to
// the workload's band.
func (st *batchState) reference(smoke bool) (*reference, error) {
	opt := st.cfg.Layout
	opt.Workspace = nil
	opt.Workers = 2
	l, _, err := core.ParHDE(st.g, opt)
	if err != nil {
		return nil, fmt.Errorf("reference layout: %w", err)
	}
	ref := &reference{}
	var finite bool
	if ref.sum, finite = st.hasher.sum(l); !finite {
		return nil, fmt.Errorf("reference layout has non-finite coordinates")
	}
	ref.hall = core.Evaluate(st.g, l).HallRatio
	// The band is calibrated on the full-size graphs only.
	if !smoke && (ref.hall < st.sp.hallLo || ref.hall > st.sp.hallHi) {
		return nil, fmt.Errorf("reference HallRatio %g outside [%g, %g]", ref.hall, st.sp.hallLo, st.sp.hallHi)
	}
	return ref, nil
}

// check holds one op's layout to the reference: finite, same checksum.
func (st *batchState) check(l *core.Layout) error {
	sum, finite := st.hasher.sum(l)
	if !finite {
		return fmt.Errorf("layout has non-finite coordinates")
	}
	if sum != st.ref.sum {
		return fmt.Errorf("layout checksum %x differs from reference %x", sum[:6], st.ref.sum[:6])
	}
	return nil
}

// checkHall re-evaluates quality on the workspace's current layout (the
// last op's). Equal checksums already imply equal quality; this is the
// independent 1% guard run once per window rather than per op, because
// Evaluate costs as much as an op.
func (st *batchState) checkHall() error {
	l := &core.Layout{Coords: linalg.ViewDense(st.ws.Coords, st.g.NumV, 2)}
	h := core.Evaluate(st.g, l).HallRatio
	if math.Abs(h-st.ref.hall) > 0.01*math.Abs(st.ref.hall) {
		return fmt.Errorf("HallRatio %g not within 1%% of reference %g", h, st.ref.hall)
	}
	return nil
}

// ops returns the gated op and, on a trace run, the staged replay.
func (st *batchState) ops(tr *tracer) []opFunc {
	if tr == nil {
		return []opFunc{st.runOp(1, false)}
	}
	return []opFunc{st.runOp(1, true), st.stagedOp(tr)}
}

// runOp is the gated op: one pipeline.RunCtx on the reused workspace.
// record keeps core's own phase report of every op for the trace run.
func (st *batchState) runOp(workers int, record bool) opFunc {
	cfg := st.cfg
	cfg.Layout.Workers = workers
	return func(int) (time.Duration, error) {
		t0 := time.Now()
		res, err := pipeline.RunCtx(context.Background(), st.g, cfg)
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		if record {
			bd := res.Report.Breakdown
			st.totalsMs = append(st.totalsMs, ms(bd.Total))
			st.overheadMs = append(st.overheadMs, ms(d-bd.Total))
			for _, p := range bd.Phases() {
				st.reportsMs[p.Name] = append(st.reportsMs[p.Name], ms(p.D))
			}
		}
		return d, st.check(res.Layout)
	}
}

// stagedOp replays the op stage by stage through the same public kernels
// core.ParHDE calls, with a span around each; the checksum proves the
// replay did the same work.
func (st *batchState) stagedOp(tr *tracer) opFunc {
	return func(i int) (time.Duration, error) {
		t0 := time.Now()
		l, err := st.staged(tr, i)
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		return d, st.check(l)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// splitmix is core's start-vertex draw (one splitmix64 step).
func splitmix(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// staged is the decoupled, workspace-backed, one-worker ParHDE of
// core.ParHDECtx written out as calls into each layer.
func (st *batchState) staged(tr *tracer, op int) (*core.Layout, error) {
	g, ws, opt := st.g, st.ws, st.cfg.Layout
	n, s := g.NumV, opt.Subspace
	root := tr.begin("core.staged", -1, op)
	defer tr.end(root)
	bud := parallel.FixedBudget(1)

	id := tr.begin("workspace.reshape", root, op)
	ws.Reshape(n, s, 2)
	tr.end(id)

	traversal := "bfs.traversal"
	if opt.Pivots == pivot.RandomMS {
		traversal = "bfs.msbfs64"
	}
	hook := func(name string) func(func()) {
		return func(f func()) {
			id := tr.begin(name, root, op)
			f()
			tr.end(id)
		}
	}
	b := ws.DistView(n, s)
	start := int32(splitmix(opt.Seed) % uint64(n))
	st.lastStats = pivot.PhaseBudget(bud, g, b, start, opt.Pivots, bfs.Options{}, ws.Pivot,
		hook(traversal), hook("pivot.select"))

	id = tr.begin("ortho.dortho", root, op)
	ws.Deg = g.WeightedDegreesIntoBudget(bud, ws.Deg)
	res := ortho.DOrthogonalizeBudget(bud, b, ws.Deg, ortho.MGS, ws.Ortho)
	tr.end(id)
	k := res.S.Cols
	st.lastKept = k
	if k < 2 {
		return nil, fmt.Errorf("staged: only %d independent distance vectors", k)
	}

	id = tr.begin("linalg.ls", root, op)
	p := linalg.LapMulDenseTiledPackedBudget(bud, g, ws.Deg, res.S, linalg.ViewDense(ws.P, n, k), ws.SRM, ws.Pack)
	tr.end(id)

	id = tr.begin("linalg.gemm", root, op)
	z := linalg.AtBPackedBudget(bud, res.S, p, linalg.ViewDense(ws.Z, k, k), ws.GemmPartials, ws.Pack)
	tr.end(id)

	// Projected eigenproblem (SᵀLS)y = µ(SᵀDS)y in standard form: scale by
	// T = diag(dNorms)^-1/2, solve, back-substitute.
	id = tr.begin("eigen.solve", root, op)
	t := make([]float64, k)
	for i := range t {
		t[i] = 1 / math.Sqrt(res.DNorms[i])
	}
	zs := linalg.NewDense(k, k)
	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			zs.Set(i, j, z.At(i, j)*t[i]*t[j])
		}
	}
	_, axes, err := eigen.BottomK(zs, 2)
	if err == nil {
		for j := 0; j < axes.Cols; j++ {
			col := axes.Col(j)
			for i := range col {
				col[i] *= t[i]
			}
		}
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("linalg.project", root, op)
	c := linalg.MulSmallBudget(bud, res.S, axes, linalg.ViewDense(ws.Coords, n, axes.Cols))
	tr.end(id)
	return &core.Layout{Coords: c}, nil
}

// stageNames are the staged spans that add up to one op.
var stageNames = []string{
	"workspace.reshape", "bfs.traversal", "bfs.msbfs64", "pivot.select",
	"ortho.dortho", "linalg.ls", "linalg.gemm", "eigen.solve", "linalg.project",
}

// quietOps returns the quarter of the traced ops with the shortest root
// span. Stage times are averaged over these ops only: interference adds
// time to whichever stage it hits, so the quiet ops show the split the
// code itself produces, and their stages still add up to their roots.
func quietOps(tr *tracer) []int {
	roots := tr.perOpMs("core.staged")
	ops := make([]int, 0, len(roots))
	for op := range roots {
		if op >= 0 {
			ops = append(ops, op)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return roots[ops[i]] < roots[ops[j]] })
	return ops[:(len(ops)+3)/4]
}

// quietMean is the mean of the smallest quarter of xs.
func quietMean(xs []float64) float64 {
	asc := sorted(xs)
	asc = asc[:(len(asc)+3)/4]
	sum := 0.0
	for _, x := range asc {
		sum += x
	}
	if len(asc) == 0 {
		return 0
	}
	return sum / float64(len(asc))
}

// layerMetrics turns the trace run's spans and counters into the batch
// per-layer metrics. Stage times are means over the quiet ops; bytes and
// flops are computed from the problem shape, never measured.
func (st *batchState) layerMetrics(tr *tracer, out metrics, streamGB float64) {
	quiet := quietOps(tr)
	stage := map[string]float64{}
	attributed := 0.0
	for _, name := range stageNames {
		perOp := tr.perOpMs(name)
		for _, op := range quiet {
			stage[name] += perOp[op] / float64(len(quiet))
		}
		attributed += stage[name]
	}
	set := out.set
	n, m2 := float64(st.g.NumV), float64(len(st.g.Adj))
	s, k := float64(st.sp.subspace), float64(st.lastKept)

	set("host.stream_gbytes_per_s", streamGB, "GB/s")
	set("workspace.reshape_ms", tr.perOpMs("workspace.reshape")[setupOp], "ms")
	set("workspace.bytes", float64(st.wsBytes), "bytes")
	set("pivot.select_ms", stage["pivot.select"], "ms")
	var totals bfs.Stats
	for _, t := range st.lastStats.Traversal {
		totals.Add(t)
	}
	if st.sp.pivots == pivot.RandomMS {
		set("bfs.msbfs64_ms", stage["bfs.msbfs64"], "ms")
		set("bfs.msbfs64_scanned_edges", float64(st.lastStats.ScannedEdges), "count")
	} else {
		set("bfs.traversal_ms", stage["bfs.traversal"], "ms")
		set("bfs.scanned_edges", float64(st.lastStats.ScannedEdges), "count")
		set("bfs.topdown_steps", float64(totals.TopDownSteps), "count")
		set("bfs.bottomup_steps", float64(totals.BottomUpSteps), "count")
		if t := stage["bfs.traversal"]; t > 0 {
			set("bfs.medges_per_s", float64(st.lastStats.ScannedEdges)/(t*1e3), "Medges/s")
		}
	}

	// DOrtho compulsory traffic: every (column, kept predecessor) pair
	// reads the predecessor twice (dot, then axpy), and every column is
	// read from B once and written to S once.
	pairs := k * (k + 1) / 2
	orthoBytes := 16 * n * (pairs + s)
	set("ortho.dortho_ms", stage["ortho.dortho"], "ms")
	set("ortho.kept_columns", k, "count")
	// L·S compulsory traffic: one pass over the adjacency, a k-wide row of
	// S gathered per arc, S read and P written once, plus the degrees.
	lsBytes := m2*(4+8*k) + 16*n*k + 8*n
	set("linalg.ls_ms", stage["linalg.ls"], "ms")
	set("linalg.gemm_ms", stage["linalg.gemm"], "ms")
	set("linalg.project_ms", stage["linalg.project"], "ms")
	set("eigen.solve_ms", stage["eigen.solve"], "ms")
	if t := stage["ortho.dortho"]; t > 0 {
		gb := orthoBytes / (t * 1e6)
		set("ortho.gbytes_per_s", gb, "GB/s")
		if streamGB > 0 {
			set("ortho.roofline_frac", gb/streamGB, "ratio")
		}
	}
	if t := stage["linalg.ls"]; t > 0 {
		gb := lsBytes / (t * 1e6)
		set("linalg.ls_gbytes_per_s", gb, "GB/s")
		if streamGB > 0 {
			set("linalg.ls_roofline_frac", gb/streamGB, "ratio")
		}
	}
	if t := stage["linalg.gemm"]; t > 0 {
		set("linalg.gemm_gflops", 2*n*k*k/(t*1e6), "GFLOP/s")
	}

	total := quietMean(st.totalsMs)
	set("core.total_ms", total, "ms")
	set("pipeline.overhead_ms", median(st.overheadMs), "ms")
	if total > 0 {
		set("core.attributed_ratio", attributed/total, "ratio")
	}
	// Worst agreement between a staged span and the phase core itself
	// timed, over phases big enough (≥ 2% of the op) to compare.
	pairsOf := [][2]string{
		{"bfs.traversal", "bfs_traversal"}, {"bfs.msbfs64", "bfs_traversal"},
		{"pivot.select", "bfs_other"}, {"ortho.dortho", "dortho"},
		{"linalg.ls", "ls"}, {"linalg.gemm", "gemm"},
	}
	worst := 1.0
	for _, p := range pairsOf {
		ref := quietMean(st.reportsMs[p[1]])
		if stage[p[0]] == 0 || ref < 0.02*total {
			continue
		}
		if r := stage[p[0]] / ref; math.Abs(r-1) > math.Abs(worst-1) {
			worst = r
		}
	}
	set("core.phase_agree_ratio", worst, "ratio")
}
