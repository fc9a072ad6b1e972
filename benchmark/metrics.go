package main

// metricDef is one row of BENCHMARK.json's metric lists. The tables below
// are the harness's copy of those lists — stats_test.go holds the two in
// step — and README.md gives each metric's definition.
type metricDef struct {
	name   string
	unit   string
	better string
	// cap is the largest bound calibration may derive for an end-to-end
	// metric (0 for per-layer metrics, which are never gated). The caps are
	// wider than the issue hoped for (0.10, 0.10, 0.05, 0.05): three times
	// the quartile spread of ten runs is 0.15 for the latency even in a quiet
	// half-hour, and this host's sustained contention alone moves every
	// timing by 5–10% in a noisy one (README.md, "Noise evidence"). The two
	// timings sit at the contract's ceiling of 0.25.
	cap float64
}

var endToEndNames = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p05_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.12},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

var perLayerNames = []metricDef{
	{"graph.read_ms", "ms", "lower", 0},
	{"graph.lcc_ms", "ms", "lower", 0},
	{"workspace.reshape_ms", "ms", "lower", 0},
	{"workspace.bytes", "bytes", "lower", 0},
	{"bfs.traversal_ms", "ms", "lower", 0},
	{"bfs.scanned_edges", "count", "lower", 0},
	{"bfs.topdown_steps", "count", "lower", 0},
	{"bfs.bottomup_steps", "count", "lower", 0},
	{"bfs.medges_per_s", "Medges/s", "higher", 0},
	{"pivot.select_ms", "ms", "lower", 0},
	{"bfs.msbfs64_ms", "ms", "lower", 0},
	{"bfs.msbfs64_scanned_edges", "count", "lower", 0},
	{"ortho.dortho_ms", "ms", "lower", 0},
	{"ortho.kept_columns", "count", "higher", 0},
	{"ortho.gbytes_per_s", "GB/s", "higher", 0},
	{"ortho.roofline_frac", "ratio", "higher", 0},
	{"linalg.ls_ms", "ms", "lower", 0},
	{"linalg.ls_gbytes_per_s", "GB/s", "higher", 0},
	{"linalg.ls_roofline_frac", "ratio", "higher", 0},
	{"linalg.gemm_ms", "ms", "lower", 0},
	{"linalg.gemm_gflops", "GFLOP/s", "higher", 0},
	{"linalg.project_ms", "ms", "lower", 0},
	{"eigen.solve_ms", "ms", "lower", 0},
	{"core.total_ms", "ms", "lower", 0},
	{"core.attributed_ratio", "ratio", "higher", 0},
	{"core.phase_agree_ratio", "ratio", "lower", 0},
	{"pipeline.overhead_ms", "ms", "lower", 0},
	{"host.stream_gbytes_per_s", "GB/s", "higher", 0},
	{"parallel.speedup_2w", "ratio", "higher", 0},
	{"loadgen.latency_p50_ms", "ms", "lower", 0},
	{"loadgen.latency_p90_ms", "ms", "lower", 0},
	{"loadgen.throughput_ops_s", "ops/s", "higher", 0},
	{"loadgen.ops", "count", "higher", 0},
	{"loadgen.drift_ratio", "ratio", "lower", 0},
	{"loadgen.p25_over_p05", "ratio", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"shard.proxy_overhead_ms", "ms", "lower", 0},
	{"shard.tile_hits", "count", "higher", 0},
	{"shard.tile_misses", "count", "lower", 0},
	{"server.submit_ms", "ms", "lower", 0},
	{"server.status_get_ms", "ms", "lower", 0},
	{"server.poll_count", "count", "lower", 0},
	{"jobs.queue_wait_ms", "ms", "lower", 0},
	{"jobs.run_ms", "ms", "lower", 0},
	{"jobs.done_to_install_ms", "ms", "lower", 0},
	{"core.job_phase_ms.bfs", "ms", "lower", 0},
	{"core.job_phase_ms.dortho", "ms", "lower", 0},
	{"core.job_phase_ms.ls", "ms", "lower", 0},
	{"core.job_phase_ms.gemm", "ms", "lower", 0},
	{"render.png_miss_ms", "ms", "lower", 0},
	{"render.png_bytes", "bytes", "lower", 0},
	{"render.zoom_miss_ms", "ms", "lower", 0},
	{"server.cache_hit_ms", "ms", "lower", 0},
	{"server.not_modified_ms", "ms", "lower", 0},
	{"server.cache_hits", "count", "higher", 0},
	{"server.cache_misses", "count", "lower", 0},
	{"dyngraph.patch_ms", "ms", "lower", 0},
	{"core.warm_refine_ms", "ms", "lower", 0},
	{"core.refine_sweeps", "count", "lower", 0},
	{"catalog.upload_ms", "ms", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}
