package main

// metricDef describes one metric as BENCHMARK.json lists it.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// exact marks a per-layer count that must repeat bit-for-bit between
	// runs of the same code and seed.
	exact bool
	// moves names the end-to-end number a per-layer metric should move.
	moves string
}

// endToEnd are the five gated metrics, the same for every workload.
// Timings are gated on the 5th percentile because host interference on a
// shared box only ever adds time; see README.md for the noise study and
// for why the timing bounds are wider than ISSUE 13 asked: the host has
// phases, longer than a run, that move a p05 by up to 10 % and a fresh
// process's first milliseconds by more. ok_share's bound is the
// smallest positive one; any failed op also sets "correct" false.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "eval_p05_us", unit: "us", better: "lower", bound: 0.20},
	{name: "heap_bytes_per_eval", unit: "B", better: "lower", bound: 0.02},
	{name: "allocs_per_eval", unit: "count", better: "lower", bound: 0.02},
	{name: "ok_share", unit: "ratio", better: "higher", bound: 0.001},
}

// perLayer are the traced run's metrics. Layer = module name. Every
// *_us is the 5th percentile of that call's span in µs, wall-clock; no
// metric is a modeled device time.
var perLayer = []metricDef{
	{name: "expr.parse_us", unit: "us", better: "lower", moves: "cold_compile/eval_p05_us"},
	{name: "expr.build_us", unit: "us", better: "lower", moves: "cold_compile/eval_p05_us"},
	{name: "passes.o2_us", unit: "us", better: "lower", moves: "cold_compile/eval_p05_us"},
	{name: "passes.nodes_removed", unit: "count", better: "higher", exact: true, moves: "codegen.fuse_us, cold_compile/eval_p05_us"},
	{name: "codegen.fuse_us", unit: "us", better: "lower", moves: "cold_compile/eval_p05_us, */setup_s"},
	{name: "codegen.source_bytes", unit: "B", better: "lower", exact: true, moves: "codegen.fuse_us"},
	{name: "vm.compile_us", unit: "us", better: "lower", moves: "cold_compile/eval_p05_us, */setup_s"},
	{name: "vm.instrs", unit: "count", better: "lower", exact: true, moves: "vm.execute_us"},
	{name: "strategy.plan_us", unit: "us", better: "lower", moves: "cold_compile/eval_p05_us"},
	{name: "compile.miss_us", unit: "us", better: "lower", moves: "cold_compile/eval_p05_us"},
	{name: "compile.hit_us", unit: "us", better: "lower", moves: "serve_closed/eval_p05_us"},
	{name: "compile.fingerprint_us", unit: "us", better: "lower", moves: "serve_closed/eval_p05_us"},
	{name: "strategy.bind_us", unit: "us", better: "lower", moves: "small_hot/eval_p05_us"},
	{name: "strategy.execute_us", unit: "us", better: "lower", moves: "insitu_large/eval_p05_us, small_hot/eval_p05_us"},
	{name: "strategy.execute_heap_bytes", unit: "B", better: "lower", exact: true, moves: "*/heap_bytes_per_eval on both mesh workloads"},
	{name: "strategy.execute_allocs", unit: "count", better: "lower", exact: true, moves: "*/allocs_per_eval on both mesh workloads"},
	{name: "ocl.write_wall_us", unit: "us", better: "lower", moves: "small_hot/eval_p05_us"},
	{name: "ocl.kernel_wall_us", unit: "us", better: "lower", moves: "insitu_large/eval_p05_us"},
	{name: "ocl.read_wall_us", unit: "us", better: "lower", moves: "small_hot/eval_p05_us"},
	{name: "ocl.kernels", unit: "count", better: "lower", exact: true, moves: "explains a timing move only"},
	{name: "ocl.writes", unit: "count", better: "lower", exact: true, moves: "explains a timing move only"},
	{name: "ocl.reads", unit: "count", better: "lower", exact: true, moves: "explains a timing move only"},
	{name: "ocl.write_bytes", unit: "B", better: "lower", exact: true, moves: "explains a timing move only"},
	{name: "ocl.read_bytes", unit: "B", better: "lower", exact: true, moves: "explains a timing move only"},
	{name: "ocl.arena_hits", unit: "count", better: "higher", exact: true, moves: "explains a timing move only"},
	{name: "ocl.upload_skips", unit: "count", better: "higher", exact: true, moves: "explains a timing move only"},
	{name: "strategy.self_us", unit: "us", better: "lower", moves: "small_hot/eval_p05_us"},
	{name: "dfg.eval_self_us", unit: "us", better: "lower", moves: "small_hot/eval_p05_us, serve_closed/eval_p05_us"},
	{name: "codegen.ns_per_element", unit: "ns", better: "lower", moves: "insitu_large/eval_p05_us"},
	{name: "ref.triad_us", unit: "us", better: "lower", moves: "none: the same-size reference the kernel is compared with"},
	{name: "codegen.triads_per_eval", unit: "ratio", better: "lower", moves: "insitu_large/eval_p05_us"},
	{name: "vm.execute_us", unit: "us", better: "lower", moves: "serve_closed/eval_p05_us"},
	{name: "vm.ns_per_element", unit: "ns", better: "lower", moves: "serve_closed/eval_p05_us"},
	{name: "exec.fusion_over_vm", unit: "ratio", better: "lower", moves: "ROADMAP item 2's acceptance number"},
	{name: "dfg.prepare_us", unit: "us", better: "lower", moves: "cold_compile/eval_p05_us, */setup_s"},
	{name: "dfg.first_eval_us", unit: "us", better: "lower", moves: "cold_compile/eval_p05_us, */setup_s"},
	{name: "dfg.close_us", unit: "us", better: "lower", moves: "cold_compile/eval_p05_us"},
	{name: "serve.submit_us", unit: "us", better: "lower", moves: "serve_closed/eval_p05_us"},
	{name: "serve.wait_us", unit: "us", better: "lower", moves: "serve_closed/eval_p05_us; a rise is a scheduling regression"},
	{name: "serve.run_us", unit: "us", better: "lower", moves: "serve_closed/eval_p05_us"},
	{name: "serve.self_us", unit: "us", better: "lower", moves: "serve_closed/eval_p05_us"},
	{name: "serve.run_over_direct", unit: "ratio", better: "lower", moves: "serve_closed/eval_p05_us, serve_closed/allocs_per_eval"},
	{name: "serve.compiles", unit: "count", better: "lower", exact: true, moves: "serve_closed/ok_share; must equal the hot-set size"},
	{name: "serve.served", unit: "count", better: "higher", moves: "serve_closed/ok_share"},
	{name: "serve.rejected", unit: "count", better: "lower", exact: true, moves: "serve_closed/ok_share"},
	{name: "serve.timeouts", unit: "count", better: "lower", exact: true, moves: "serve_closed/ok_share"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower", moves: "none: must stay below 0.05"},
}
