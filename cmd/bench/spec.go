package main

// metricDef mirrors one entry of BENCHMARK.json; bench_test.go holds the
// two in lockstep.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// count marks a metric that must repeat bit-for-bit for a fixed seed.
	count bool
}

// endToEnd is what a user of the system sees, in the order printed.
// failed_share is not a metric here: the result line's attempted/failed
// carry it, and it is 0 on a healthy tree, which no relative bound can
// referee.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cond_ratio", Unit: "ratio", Better: "lower", Bound: 0.05, count: true},
	{Name: "edges_per_node", Unit: "edges/node", Better: "lower", Bound: 0.02, count: true},
	{Name: "pcg_iters", Unit: "iterations", Better: "lower", Bound: 0.05, count: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer is the -trace 1 ledger. A layer a workload never enters reads
// 0 there.
var perLayer = []metricDef{
	{Name: "gen.build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.lapmulvec_us", Unit: "us", Better: "lower"},
	{Name: "graph.lapmulvec_gbps_computed", Unit: "GB/s", Better: "higher"},
	{Name: "vecmath.dot_us", Unit: "us", Better: "lower"},
	{Name: "lsst.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "lsst.total_stretch", Unit: "stretch", Better: "lower", count: true},
	{Name: "tree.solve_us", Unit: "us", Better: "lower"},
	{Name: "cholesky.factor_ms", Unit: "ms", Better: "lower"},
	{Name: "cholesky.factor_nnz", Unit: "count", Better: "lower", count: true},
	{Name: "cholesky.solve_us", Unit: "us", Better: "lower"},
	{Name: "cholesky.apply_edge_us", Unit: "us", Better: "lower"},
	{Name: "core.sparsify_ms", Unit: "ms", Better: "lower"},
	{Name: "core.embed_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rounds", Unit: "count", Better: "lower", count: true},
	{Name: "core.offtree_added", Unit: "count", Better: "lower", count: true},
	{Name: "core.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "eig.lanczos_ms", Unit: "ms", Better: "lower"},
	{Name: "core.refilter_ms", Unit: "ms", Better: "lower"},
	{Name: "pcg.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "pcg.iters", Unit: "iterations", Better: "lower", count: true},
	{Name: "pcg.iters_tree", Unit: "iterations", Better: "lower", count: true},
	{Name: "partition.kway_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.cut_share", Unit: "ratio", Better: "lower", count: true},
	{Name: "engine.run_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.shard_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.shard_cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.stitch_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.recovered_cut", Unit: "count", Better: "lower", count: true},
	{Name: "engine.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "engine.speedup_vs_single", Unit: "ratio", Better: "higher"},
	{Name: "multigrid.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "multilevel.run_ms", Unit: "ms", Better: "lower"},
	{Name: "multilevel.coarsen_ms", Unit: "ms", Better: "lower"},
	{Name: "multilevel.interpolate_ms", Unit: "ms", Better: "lower"},
	{Name: "multilevel.refilter_ms", Unit: "ms", Better: "lower"},
	{Name: "multilevel.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "multilevel.depth", Unit: "count", Better: "lower", count: true},
	{Name: "dynamic.build_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.apply_switch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.apply_churn_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.rank1_share", Unit: "ratio", Better: "higher", count: true},
	{Name: "dynamic.factor_rebuilds", Unit: "count", Better: "lower", count: true},
	{Name: "dynamic.tree_repairs", Unit: "count", Better: "lower", count: true},
	{Name: "dynamic.refilter_rounds", Unit: "count", Better: "lower", count: true},
	{Name: "dynamic.rebuilds", Unit: "count", Better: "lower", count: true},
	{Name: "dynamic.resident_mb", Unit: "MB", Better: "lower", count: true},
	{Name: "dynamic.decode_text_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "dynamic.decode_binary_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "sessions.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "sessions.resident_mb", Unit: "MB", Better: "lower"},
	{Name: "service.stream_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.patch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.job_incremental_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.job_miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.job_hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "service.shed_share", Unit: "ratio", Better: "lower", count: true},
	{Name: "service.patch_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "graphspar.run_ms", Unit: "ms", Better: "lower"},
	{Name: "graphspar.phase_coverage_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.stage_coverage_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}
