// Package obs is the framework's zero-dependency observability layer:
// pipeline tracing and a metrics registry, built on the standard library
// only, threaded through the engine (dfg), the shared compile layer
// (internal/compile) and the evaluation service (internal/serve).
//
// Tracing. A Tracer hands out request-scoped Spans that form explicit
// parent/child trees covering the whole derived-field pipeline: parse ->
// AST build -> network construction/CSE -> compile-cache lookup
// (hit/miss/singleflight-wait) -> strategy execution, with the run's
// simulated device events (ocl.Event) attached as fixed-time child spans
// on their own tracks. Finished root spans are immutable; the tracer
// keeps a bounded ring of recent traces (for the service's /trace
// endpoint) and a second ring of kept traces — errored, degraded,
// retried or rerouted, at or above an optional slow threshold (which
// also fires a slow-request callback with the full span tree), or in
// the running slowest 5%. internal/metrics renders span trees as
// multi-track Chrome-trace JSON for chrome://tracing or Perfetto.
//
// Metrics. A Registry holds named, labeled series — monotone Counters,
// callback-backed CounterFunc/GaugeFunc collectors, and
// log-bucketed latency Histograms with p50/p90/p99 estimation — and
// writes them in the Prometheus text exposition format (WritePrometheus,
// the service's /metrics endpoint).
//
// Cost discipline: instrumentation is optional everywhere. The nil
// *Tracer and nil *Registry are valid no-op implementations — every
// method on Span, Tracer, Counter and Histogram is nil-safe and
// allocation-free on the nil path — so the uninstrumented hot path pays
// (near) zero overhead; see BenchmarkEngineEval.
package obs
