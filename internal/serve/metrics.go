package serve

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"dfg/internal/obs"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/perfdb"
)

// uptime is the pool's lifetime, frozen at Close so post-shutdown
// scrapes and reports stay meaningful.
func (p *Pool) uptime() time.Duration {
	end := p.clock.now()
	if ns := p.closedAt.Load(); ns != 0 {
		end = time.Unix(0, ns)
	}
	return end.Sub(p.start)
}

// registerMetrics wires the pool's observable state into the registry.
// Counters whose source of truth already lives in pool or compiler
// atomics are exported as callback-backed series — evaluated at scrape
// time, so the hot path pays nothing for them.
func (p *Pool) registerMetrics() {
	r := p.reg
	load := func(a *atomic.Int64) func() float64 { return func() float64 { return float64(a.Load()) } }
	// Buffer-arena counters are summed across every worker's current
	// engine.
	arena := func(get func(ocl.ArenaStats) float64) func() float64 {
		return func() float64 {
			var sum float64
			for i := range p.engines {
				sum += get(p.engines[i].Load().ArenaStats())
			}
			return sum
		}
	}
	device := func(get func(ocl.Profile) float64) func() float64 {
		return func() float64 { prof, _, _ := p.acc.Snapshot(); return get(prof) }
	}
	for _, s := range []struct {
		gauge      bool
		name, help string
		get        func() float64
	}{
		{true, "dfg_queue_depth", "Requests waiting in the bounded queue.", func() float64 { return float64(len(p.queue)) }},
		{true, "dfg_queue_capacity", "Configured queue bound.", func() float64 { return float64(p.cfg.QueueDepth) }},
		{true, "dfg_workers", "Pool size (engines / worker goroutines).", func() float64 { return float64(p.cfg.Workers) }},
		{true, "dfg_uptime_seconds", "Time since the pool started (frozen at Close).", func() float64 { return p.uptime().Seconds() }},

		// A hot request is answered from its worker's handle cache and never
		// reaches the shared caches: those count handle misses only.
		{false, "dfg_handle_cache_hits_total", "Requests (merged batches count once) answered from a worker's open prepared handle.", load(&p.handleHits)},
		{false, "dfg_handle_cache_misses_total", "Handle lookups that prepared: first sight, evicted, or flushed by a Define.", load(&p.handleMisses)},
		{false, "dfg_plan_cache_hits_total", "Shared plan-cache hits.", func() float64 { return float64(p.comp.Stats().PlanHits) }},
		{false, "dfg_plan_cache_misses_total", "Shared plan-cache misses.", func() float64 { return float64(p.comp.Stats().PlanMisses) }},
		{false, "dfg_plan_builds_total", "Execution plans actually constructed (deduplicated misses).", func() float64 { return float64(p.comp.Stats().PlanBuilds) }},
		{true, "dfg_plan_cache_entries", "Cached execution plans.", func() float64 { return float64(p.comp.Stats().PlanEntries) }},
		{false, "dfg_compile_cache_hits_total", "Shared compile-cache hits.", func() float64 { return float64(p.comp.Stats().Hits) }},
		{false, "dfg_compile_cache_misses_total", "Shared compile-cache misses.", func() float64 { return float64(p.comp.Stats().Misses) }},
		{false, "dfg_compile_builds_total", "Networks actually built (deduplicated misses).", func() float64 { return float64(p.comp.Stats().Compiles) }},
		{true, "dfg_compile_inflight", "Builds running right now (singleflight leaders).", func() float64 { return float64(p.comp.Stats().Inflight) }},
		{true, "dfg_compile_cache_entries", "Cached compiled networks.", func() float64 { return float64(p.comp.Stats().Entries) }},

		{false, "dfg_arena_buffers_reused_total", "Device buffers served from arena free lists.", arena(func(s ocl.ArenaStats) float64 { return float64(s.Reused) })},
		{false, "dfg_arena_buffers_allocated_total", "Device buffers freshly allocated through arenas.", arena(func(s ocl.ArenaStats) float64 { return float64(s.Allocated) })},
		{false, "dfg_arena_uploads_total", "Resident-source binds charged a modeled transfer.", arena(func(s ocl.ArenaStats) float64 { return float64(s.Uploads) })},
		{false, "dfg_arena_upload_skips_total", "Resident-source binds skipped: the stable array was already resident.", arena(func(s ocl.ArenaStats) float64 { return float64(s.UploadsSkipped) })},
		{true, "dfg_arena_resident_bytes", "Device memory pinned by resident source buffers.", arena(func(s ocl.ArenaStats) float64 { return float64(s.ResidentBytes) })},
		{true, "dfg_arena_pooled_bytes", "Device memory idle in arena free lists.", arena(func(s ocl.ArenaStats) float64 { return float64(s.PooledBytes) })},
		{false, "dfg_arena_evictions_total", "Arena buffers evicted under device memory pressure.", arena(func(s ocl.ArenaStats) float64 { return float64(s.Evictions) })},

		{false, "dfg_device_writes_total", "Host-to-device transfers across all workers.", device(func(pr ocl.Profile) float64 { return float64(pr.Writes) })},
		{false, "dfg_device_reads_total", "Device-to-host transfers across all workers.", device(func(pr ocl.Profile) float64 { return float64(pr.Reads) })},
		{false, "dfg_device_kernels_total", "Kernel launches across all workers.", device(func(pr ocl.Profile) float64 { return float64(pr.Kernels) })},
		{false, "dfg_device_write_bytes_total", "Bytes moved host-to-device.", device(func(pr ocl.Profile) float64 { return float64(pr.WriteBytes) })},
		{false, "dfg_device_read_bytes_total", "Bytes moved device-to-host.", device(func(pr ocl.Profile) float64 { return float64(pr.ReadBytes) })},
		{false, "dfg_device_write_seconds_total", "Modeled host-to-device transfer time.", device(func(pr ocl.Profile) float64 { return pr.WriteTime.Seconds() })},
		{false, "dfg_device_read_seconds_total", "Modeled device-to-host transfer time.", device(func(pr ocl.Profile) float64 { return pr.ReadTime.Seconds() })},
		{false, "dfg_device_kernel_seconds_total", "Modeled kernel execution time.", device(func(pr ocl.Profile) float64 { return pr.KernelTime.Seconds() })},
		{true, "dfg_peak_device_bytes", "Largest single-run device-memory high-water mark.", func() float64 { _, _, peak := p.acc.Snapshot(); return float64(peak) }},

		// dfg_retries_total and dfg_fallback_total are written by the
		// engines' recovery loops into this same registry.
		{false, "dfg_requests_rerouted_total", "Jobs requeued off a tripped worker's device.", load(&p.rerouted)},
		{false, "dfg_perf_records_total", "Evaluation records deposited in the perf recorder.", func() float64 { return float64(p.perf.Recorded()) }},
		{false, "dfg_perf_records_dropped_total", "Perf records overwritten in the ring before a flush.", func() float64 { return float64(p.perf.Dropped()) }},
		{false, "dfg_flight_dumps_total", "Flight-recorder postmortem dumps written.", load(&p.flightDumps)},
		{false, "dfg_batches_total", "Merged batch jobs executed.", load(&p.batches)},
		{false, "dfg_batch_splits_total", "Batches degraded to per-member solo evaluation after a merged run failed.", load(&p.batchSplits)},
		{false, "dfg_batch_cse_nodes_shared_total", "Dataflow nodes cross-expression CSE eliminated across executed batches.", load(&p.batchShared)},
	} {
		if s.gauge {
			r.GaugeFunc(s.name, s.help, nil, s.get)
		} else {
			r.CounterFunc(s.name, s.help, nil, s.get)
		}
	}
	for name, src := range map[string]*atomic.Int64{
		"served": &p.served, "failed": &p.failed, "expired": &p.expired, "rejected": &p.rejected,
	} {
		r.CounterFunc("dfg_requests_total", "Requests by outcome.", obs.Labels{"outcome": name}, load(src))
	}
	for i := range p.breakers {
		labels := obs.Labels{"worker": strconv.Itoa(i)}
		busy := func() float64 { return time.Duration(p.busy[i].Load()).Seconds() }
		r.GaugeFunc("dfg_breaker_state", "Circuit-breaker position (0 closed, 1 half-open, 2 open).",
			labels, func() float64 { st, _ := unpack(p.breakers[i].Load()); return float64(st) })
		r.CounterFunc("dfg_breaker_trips_total", "Times the worker's breaker opened.",
			labels, func() float64 { _, trips := unpack(p.breakers[i].Load()); return float64(trips) })
		r.CounterFunc("dfg_worker_restarts_total", "Engine rebuilds after a panic or dead device.", labels, load(&p.restarts[i]))
		r.CounterFunc("dfg_worker_busy_seconds_total", "Cumulative execution time per worker.", labels, busy)
		r.GaugeFunc("dfg_worker_utilization", "Fraction of pool uptime the worker spent executing.",
			labels, func() float64 {
				if up := p.uptime().Seconds(); up > 0 {
					return busy() / up
				}
				return 0
			})
	}
	// Per-pass optimiser counters: every worker compiles through the one
	// shared compiler, so its aggregates are pool-wide.
	for _, pass := range passes.Names() {
		labels := obs.Labels{"pass": pass}
		r.CounterFunc("dfg_pass_runs_total", "Optimisation pass executions.",
			labels, func() float64 { return float64(p.comp.PassStat(pass).Runs) })
		r.CounterFunc("dfg_pass_nodes_removed_total", "Dataflow nodes removed per optimisation pass.",
			labels, func() float64 { return float64(p.comp.PassStat(pass).NodesRemoved) })
		r.CounterFunc("dfg_pass_seconds", "Cumulative time spent in each optimisation pass.",
			labels, func() float64 { return p.comp.PassStat(pass).Seconds })
	}
	// The Go runtime's own gauges (goroutines, heap, GC pauses), so the
	// scrape covers the process serving the pool, not just the pool.
	obs.RegisterRuntimeMetrics(r)

	// The size histogram reuses the log-bucketed duration histogram by
	// encoding a batch of n members as n microseconds, so its quantiles
	// read back as member counts in µs units.
	p.formingHist = r.Histogram("dfg_batch_forming_wait_seconds", "Time requests spent in the batch forming window.", nil)
	p.batchSizeHist = r.Histogram("dfg_batch_size", "Members per executed batch (encoded as microseconds).", nil)
	p.waitHist = r.Histogram("dfg_request_wait_seconds", "Time requests spent queued (excluding the batch forming window).", nil)
	p.runHist = r.Histogram("dfg_request_run_seconds", "Time requests spent executing.", nil)
}

// Registry exposes the pool's metrics registry — the /metrics endpoint's
// source, also usable for embedding the pool behind an existing scrape
// surface.
func (p *Pool) Registry() *obs.Registry { return p.reg }

// Tracer exposes the pool's request tracer (nil when tracing is
// disabled via TraceKeep < 0).
func (p *Pool) Tracer() *obs.Tracer { return p.tracer }

// PerfRecorder exposes the pool's continuous-profiling recorder (always
// non-nil): every worker evaluation deposits one perfdb.EvalRecord here.
func (p *Pool) PerfRecorder() *perfdb.Recorder { return p.perf }

// DumpFlight writes a postmortem flight dump into Config.PerfDir — the
// tracer's recent traces (none when TraceKeep < 0) and the perf
// recorder's last 256 records — and returns its path. It runs on
// failure paths that must keep going, so a write failure is reported on
// stderr and returns "", as does a pool without a PerfDir. Embedders may
// call it directly, e.g. a failed external soak wanting the artifact.
func (p *Pool) DumpFlight(reason string) string {
	if p.cfg.PerfDir == "" {
		return ""
	}
	path, err := perfdb.WriteFlight(p.cfg.PerfDir, reason, p.meta, p.tracer.Last(0), p.perf.Last(256))
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: flight dump %s: %v\n", reason, err)
		return ""
	}
	p.flightDumps.Add(1)
	return path
}

// FlushPerf writes the perf recorder's current contents to Config.PerfDir
// as one schema-versioned JSONL snapshot and returns its path. It is safe
// to call at any time — including concurrently with a draining Close —
// and a pool with no PerfDir returns ("", nil) without touching disk.
func (p *Pool) FlushPerf() (string, error) {
	if p.cfg.PerfDir == "" {
		return "", nil
	}
	return perfdb.WriteFile(p.cfg.PerfDir, p.meta, p.perf.Snapshot())
}

// Report writes the pool's service-level summary — request outcomes,
// wait/run latency quantiles, shared-cache effectiveness, per-worker
// utilisation, and the aggregate device profile — in aligned text. It
// reads the same state /metrics exposes and works before or after
// Close; cmd/dfg-serve prints it on graceful shutdown so the final
// metrics state outlives the load generator.
func (p *Pool) Report(w io.Writer) {
	st := p.Stats()
	up := p.uptime()
	fmt.Fprintf(w, "%-28s %v\n", "uptime:", up.Round(time.Millisecond))
	fmt.Fprintf(w, "%-28s %d served, %d failed, %d expired, %d rejected\n",
		"requests:", st.Served, st.Failed, st.Expired, st.Rejected)
	if st.Rerouted > 0 || st.Restarts > 0 {
		fmt.Fprintf(w, "%-28s %d rerouted, %d engine rebuilds, breakers %v\n",
			"fault tolerance:", st.Rerouted, st.Restarts, p.BreakerStates())
	}
	quantiles := func(label string, h *obs.Histogram) {
		fmt.Fprintf(w, "%-28s p50=%v p90=%v p99=%v\n", label, h.Quantile(0.5).Round(time.Microsecond),
			h.Quantile(0.9).Round(time.Microsecond), h.Quantile(0.99).Round(time.Microsecond))
	}
	if st.Batches > 0 || st.BatchSplits > 0 {
		fmt.Fprintf(w, "%-28s %d executed (p50 size %d), %d split to solo, %d CSE-shared nodes\n",
			"batches:", st.Batches, p.batchSizeHist.Quantile(0.5).Microseconds(),
			st.BatchSplits, st.BatchShared)
		quantiles("forming wait:", p.formingHist)
	}
	if n := p.runHist.Count(); n > 0 {
		quantiles("run latency:", p.runHist)
		quantiles("queue wait:", p.waitHist)
	}
	fmt.Fprintf(w, "%-28s %d builds, %d hits, %d misses, %d entries\n",
		"shared compile cache:", st.Compiles, st.CacheHits, st.CacheMisses, st.CacheEntries)
	fmt.Fprintf(w, "%-28s %d builds, %d hits, %d misses, %d entries\n",
		"shared plan cache:", st.PlanBuilds, st.PlanHits, st.PlanMisses, st.PlanEntries)
	for i := range p.busy {
		busy := time.Duration(p.busy[i].Load())
		util := 0.0
		if up > 0 {
			util = busy.Seconds() / up.Seconds()
		}
		fmt.Fprintf(w, "%-28s busy %v (%.0f%% utilisation)\n",
			fmt.Sprintf("worker %d:", i), busy.Round(time.Millisecond), 100*util)
	}
	fmt.Fprintf(w, "%-28s %s\n", "aggregate device profile:", st.Profile.String())
	fmt.Fprintf(w, "%-28s %d bytes\n", "peak device memory (1 run):", st.PeakDeviceBytes)
	if kept := p.tracer.Kept(0); len(kept) > 0 {
		var slowest time.Duration
		for _, sp := range kept {
			slowest = max(slowest, sp.Duration())
		}
		fmt.Fprintf(w, "%-28s %d (slowest %v)\n", "kept traces:", len(kept), slowest.Round(time.Microsecond))
	}
}

// Stats is a point-in-time snapshot of pool activity.
type Stats struct {
	// Workers is the pool size.
	Workers int
	// Served counts successful evaluations; Failed, evaluation errors;
	// Expired, requests that timed out in the queue; Rejected, requests
	// that never entered the queue (full-queue timeout or closed pool).
	Served, Failed, Expired, Rejected int64
	// Rerouted counts jobs pushed back onto the queue off a tripped
	// worker; Restarts, engine rebuilds across all workers (panic
	// recoveries plus dead-device replacements).
	Rerouted, Restarts int64
	// Batches counts merged batch jobs executed; BatchSplits, batches
	// degraded to per-member solo evaluation after a merged run failed;
	// BatchShared, the dataflow nodes cross-expression CSE eliminated
	// across executed batches (work members would have duplicated solo).
	Batches, BatchSplits, BatchShared int64
	// Compiles, CacheHits and CacheMisses describe the shared compile
	// cache; CacheEntries is its current size.
	Compiles, CacheHits, CacheMisses int64
	CacheEntries                     int
	// PlanBuilds, PlanHits and PlanMisses describe the shared
	// execution-plan cache; PlanEntries is its current size.
	PlanBuilds, PlanHits, PlanMisses int64
	PlanEntries                      int
	// Profile is the aggregate device profile across all successful
	// runs on all workers; PeakDeviceBytes the largest single-run
	// device-memory high-water mark.
	Profile         ocl.Profile
	PeakDeviceBytes int64
}

// Stats returns current counters.
func (p *Pool) Stats() Stats {
	cs := p.comp.Stats()
	prof, _, peak := p.acc.Snapshot()
	var restarts int64
	for i := range p.restarts {
		restarts += p.restarts[i].Load()
	}
	return Stats{
		Workers:         p.cfg.Workers,
		Served:          p.served.Load(),
		Failed:          p.failed.Load(),
		Expired:         p.expired.Load(),
		Rejected:        p.rejected.Load(),
		Rerouted:        p.rerouted.Load(),
		Restarts:        restarts,
		Batches:         p.batches.Load(),
		BatchSplits:     p.batchSplits.Load(),
		BatchShared:     p.batchShared.Load(),
		Compiles:        cs.Compiles,
		CacheHits:       cs.Hits,
		CacheMisses:     cs.Misses,
		CacheEntries:    cs.Entries,
		PlanBuilds:      cs.PlanBuilds,
		PlanHits:        cs.PlanHits,
		PlanMisses:      cs.PlanMisses,
		PlanEntries:     cs.PlanEntries,
		Profile:         prof,
		PeakDeviceBytes: peak,
	}
}
