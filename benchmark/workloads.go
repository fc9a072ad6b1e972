package main

import (
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pivot"
)

// kind selects which client drives a workload.
type kind int

const (
	batchKind   kind = iota // in-process pipeline.RunCtx on a reused workspace
	jobsKind                // HTTP fleet, cold job + heavy render per op
	sessionKind             // HTTP fleet, PATCH + warm refine + cached reads per op
)

// spec is one workload: a seeded input and the op run against it.
type spec struct {
	name string
	// why is the one-line rationale BENCHMARK.json records.
	why  string
	kind kind
	// procs is the run's GOMAXPROCS. The batch workloads get the host's two:
	// their op is one goroutine, and the collector works beside it. The
	// serve workloads get one. Their op is serial too — one closed-loop
	// client, one job at a time — but it hops between client, router, worker
	// and job goroutines a few hundred times, and the collector works
	// through 5–14 MB of garbage per op. On two Ps every hop and every GC
	// worker may wake a thread on the other vCPU, so the op needs both
	// vCPUs free at once and its lower tail follows the neighbours' load
	// (README.md, "Noise evidence"). On one P the latency is the sum of the
	// work every layer does for the op.
	procs int
	// generate builds the input from the seed; smoke selects the tiny
	// variant `go test` runs.
	generate func(seed uint64, smoke bool) *graph.CSR

	// Batch workloads: the ParHDE configuration of every op.
	subspace int
	pivots   pivot.Strategy
	// hallLo..hallHi is the band every reference layout's HallRatio must
	// fall in: it catches a layout that is self-consistent but wrong, which
	// a checksum against a reference computed by the same code cannot. A
	// random layout scores 1 ± 0.01. Over 120 inputs the three workloads
	// scored 0.651–0.926, 3.92e-5–4.88e-5 and 4.395e-3–4.400e-3; the bands
	// leave wide margins so that no legitimate input fails a run.
	hallLo, hallHi float64
}

// The sizes are tuned for this 2-vCPU shared host, not for paper scale:
// every op is 15–110 ms so a window holds several hundred identical ops,
// which is what makes the lower tail repeatable (README.md).
var specs = []*spec{
	{
		name: "kron_k20",
		why:  "skewed-degree edge-heavy graph: L.S and GEMM dominate, BFS goes bottom-up; bypasses top-down BFS",
		kind: batchKind, procs: 2,
		generate: func(seed uint64, smoke bool) *graph.CSR {
			if smoke {
				return gen.Kron(9, 8, seed)
			}
			return gen.Kron(14, 24, seed)
		},
		subspace: 20, pivots: pivot.KCenters,
		hallLo: 0.30, hallHi: 0.99,
	},
	{
		name: "road_k10",
		why:  "high-diameter sparse graph: top-down single-source BFS and pivot bookkeeping dominate; bypasses L.S/GEMM",
		kind: batchKind, procs: 2,
		generate: func(seed uint64, smoke bool) *graph.CSR {
			if smoke {
				return gen.Road(24, 24, seed)
			}
			return gen.Road(180, 180, seed)
		},
		subspace: 10, pivots: pivot.KCenters,
		hallLo: 2e-5, hallHi: 1e-4,
	},
	{
		name: "mesh_ms64",
		why:  "3-D mesh at s=64 with one bit-parallel 64-source BFS batch: DOrtho and GEMM dominate; bypasses single-source BFS",
		kind: batchKind, procs: 2,
		generate: func(seed uint64, smoke bool) *graph.CSR {
			if smoke {
				return gen.Mesh3D(6, 6, 6)
			}
			return gen.Mesh3D(20, 20, 20)
		},
		subspace: 64, pivots: pivot.RandomMS,
		hallLo: 3e-3, hallHi: 6e-3,
	},
	{
		name: "serve_jobs",
		why:  "write path through router and worker: queue, cold BFS-heavy job, record persistence, install, full render; bypasses caches",
		kind: jobsKind, procs: 1,
		generate: func(seed uint64, smoke bool) *graph.CSR {
			if smoke {
				return gen.Kron(8, 8, seed)
			}
			return gen.Road(150, 150, seed)
		},
	},
	{
		name: "serve_session",
		why:  "interactive steady state: PATCH, warm refine, light render, 304s and hits via both LRUs; bypasses the cold pipeline",
		kind: sessionKind, procs: 1,
		generate: func(seed uint64, smoke bool) *graph.CSR {
			if smoke {
				return gen.Road(16, 16, seed)
			}
			return gen.Road(100, 100, seed)
		},
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}
