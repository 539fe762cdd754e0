// Package serve runs derived-field evaluation as a concurrent service:
// an EnginePool owns N engines — one per worker goroutine, mirroring the
// paper's one-framework-instance-per-MPI-task model — fronted by a
// single shared compile cache (internal/compile), so a hot expression
// compiles exactly once no matter how many workers evaluate it.
//
// Requests enter a bounded queue; Submit blocks for a slot (or until the
// request's deadline), EvalAsync returns a channel. Per-request timeouts
// cover queue wait: a request whose deadline passes while queued is
// failed without touching a device. Close drains the queue gracefully —
// every accepted request gets a response — and then stops the workers.
//
// With Config.BatchWindow set, a batch-forming scheduler sits in front
// of the queue: requests landing within the window that share a batch
// key (element count, opt/strategy variant, input arrays) merge into one
// cross-expression super-network, evaluated in a single run whose root
// outputs fan back out to every member — subtrees shared between member
// expressions execute once. The queue carries jobs of members either
// way; a job of one skips the merged attempt, and a failed merged run
// degrades to per-member evaluation (recovery ladder included), so
// batching never drops a request.
//
// Profiles from all workers are aggregated (ocl.Accumulator), giving the
// service-level view of device traffic that the per-run ocl.Profile
// gives a single engine.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"dfg"
	"dfg/internal/compile"
	"dfg/internal/obs"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/perfdb"
	"dfg/internal/strategy"
)

// ErrPoolClosed is returned for requests submitted after Close.
var ErrPoolClosed = errors.New("serve: pool closed")

// ErrQueueTimeout wraps deadline errors for requests that expired before
// a worker picked them up.
var ErrQueueTimeout = errors.New("serve: request expired before execution")

// ErrWorkerPanic marks a response whose evaluation panicked on the
// device (an injected chaos panic or a genuine bug). The worker
// recovered, replaced its engine, and kept serving; the failed request
// gets this typed 5xx-style error instead of taking the process down.
var ErrWorkerPanic = errors.New("serve: worker panicked during evaluation")

// ErrWorkerUnavailable marks a request that could not be placed on any
// healthy worker: the breaker on the worker that drew it was open and
// rerouting was impossible (queue full, pool closing, or every device
// tripped).
var ErrWorkerUnavailable = errors.New("serve: no healthy worker available")

// Config sizes a pool.
type Config struct {
	// Workers is the number of engines (and goroutines). Default 4.
	Workers int
	// QueueDepth bounds the number of queued (not yet executing)
	// requests. Default 2*Workers.
	QueueDepth int
	// Device and Strategy configure every worker's engine, exactly as
	// dfg.Config does ("tiered@N" routes requests below N elements to
	// the host bytecode VM). Each worker gets its own simulated device
	// (one queue, one profile), as the paper gives each instance its own
	// OpenCL context.
	Device   dfg.DeviceKind
	Strategy string
	// Opt is the optimisation level worker engines compile at: "paper"
	// or "O2". Default "O2" — a service cares about launching fewer
	// kernels, not about reproducing the paper's exact event counts;
	// harnesses that need the paper semantics set "paper" (or drive
	// engines directly). Individual requests may override it per call
	// (Request.Opt).
	Opt string
	// DefaultTimeout applies to requests that don't set one. Zero means
	// no timeout.
	DefaultTimeout time.Duration

	// BatchWindow, when positive, turns on the batch-forming scheduler:
	// instead of dispatching every request to a worker individually, the
	// pool holds each incoming request for up to this long, merging
	// requests that share a batch key (same element count, optimisation
	// level, strategy and input arrays) into one cross-expression
	// super-network evaluated in a single run — subtrees shared between
	// member expressions execute once. Zero (the default) disables
	// batching; the per-request path is untouched.
	BatchWindow time.Duration
	// BatchMax caps the members of one forming batch; a batch that fills
	// up flushes immediately instead of waiting out the window. Default
	// 16. Ignored unless BatchWindow is set.
	BatchMax int

	// TraceKeep sizes the tracer's two rings: recent request traces (the
	// /trace endpoint's window, and the traces a flight dump carries) and
	// kept ones (/slow). Zero keeps obs.DefaultKeep; negative disables
	// request tracing entirely (metrics stay on), which also empties
	// flight dumps of traces.
	TraceKeep int
	// SlowThreshold, if positive, turns on the slow-request log: any
	// request whose end-to-end latency (queue wait + execution) reaches
	// the threshold has its full span tree written to stderr and kept for
	// the /slow endpoint.
	SlowThreshold time.Duration

	// BreakerCooldown is how long an open circuit breaker waits before
	// letting one half-open health probe through (default 50ms).
	BreakerCooldown time.Duration
	// FaultPlanFor, when set, attaches a fault plan to each worker's
	// device context at construction (and again after every device
	// replacement) — the chaos-testing hook behind dfg-serve -chaos.
	FaultPlanFor func(worker int) *ocl.FaultPlan

	// PerfDir, when set, is the perf-database directory: Close (and
	// FlushPerf) write the pool's evaluation records there as
	// schema-versioned JSONL, and DumpFlight writes its postmortem dumps
	// there when a breaker trips or a worker panics. Empty keeps the
	// continuous-profiling recorder in memory only (its ring is still
	// live and inspectable) and disables flight dumps.
	PerfDir string
	// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/
	// on the pool's HTTP Handler.
	EnablePprof bool
}

// Request is one evaluation: an expression program over named inputs.
type Request struct {
	// Expr is the expression program text.
	Expr string
	// N is the number of elements (the kernel ND-range).
	N int
	// Inputs binds source names to host arrays.
	Inputs map[string][]float32
	// Timeout, if positive, overrides the pool's DefaultTimeout.
	Timeout time.Duration
	// Opt, if non-empty, overrides the pool's optimisation level for
	// this request: "paper" or "O2". Both levels' compiled plans
	// coexist in the shared cache (the level is part of the cache key).
	Opt string
	// Strategy, if non-empty, overrides the pool's execution strategy
	// for this request — any name dfg accepts, including "vm" and
	// "tiered@N". Each strategy's plans occupy their own slots in the
	// shared cache, so overrides never evict the pool default's plans.
	// EvalAsync parses both into a variant once (empty: the pool's), so
	// equal variants share prepared handles and batches whatever their
	// spelling: "", "tiered" and "tiered@4096" on a "tiered" pool are
	// one. An unknown name fails its request alone, counted as Failed.
	Strategy string
}

// Response is the outcome of one request.
type Response struct {
	// Result is the derived field and its device profile (nil on error).
	Result *dfg.Result
	// Err is the failure, if any.
	Err error
	// Worker is the index of the engine that ran the request (-1 if it
	// never reached one).
	Worker int
	// Wait is the time spent queued; Run the time spent executing.
	Wait, Run time.Duration
}

// member is one client request on its way through the pool: what was
// asked, the deadline covering its queue wait, and the channel that
// receives its one Response.
type member struct {
	req      Request
	v        variant // req's, parsed (the pool's for an empty field)
	ctx      context.Context
	cancel   context.CancelFunc
	enqueued time.Time
	resp     chan Response
	// formed is when the batch former flushed the request out of its
	// forming window (zero when batching is off). Queue wait is measured
	// from it, so time deliberately spent forming is not misattributed to
	// queue congestion.
	formed time.Time
}

// reply delivers the member's one response and releases its context.
func (m *member) reply(r Response) {
	m.cancel()
	m.resp <- r
}

// queuedAt is when the member entered the bounded queue: its flush out
// of the forming window, or its submission when batching is off.
func (m *member) queuedAt() time.Time {
	if !m.formed.IsZero() {
		return m.formed
	}
	return m.enqueued
}

// job is what the queue carries: an ordered list of members evaluated
// together. A request that never met a compatible peer is a job of one;
// several members share N, variant and input binding (batchKey) and run
// as one merged super-network.
type job struct {
	members []*member
	// hops counts breaker reroutes, bounding how often a job may bounce
	// between tripped workers before failing ErrWorkerUnavailable.
	hops int
}

// Pool is a fixed set of worker engines behind one shared compile cache
// and one bounded request queue. All methods are safe for concurrent
// use.
type Pool struct {
	cfg   Config
	v     variant // Config's, parsed: the workers' and requests' default
	comp  *compile.Compiler
	queue chan *job
	done  chan struct{}

	// engines holds each worker's engine, for scrape-time aggregation of
	// the per-engine buffer-arena counters. engMu guards it: a worker
	// replaces its slot after a panic restart or a dead-device
	// replacement, and metric-scrape closures read it concurrently.
	engMu   sync.RWMutex
	engines []*dfg.Engine

	// breakers holds each worker's circuit breaker (fixed slice, the
	// breakers themselves are internally locked).
	breakers []*breaker

	sendMu  sync.RWMutex // guards closed against in-flight senders
	closed  bool
	senders sync.WaitGroup
	workers sync.WaitGroup

	// Batch former: when BatchWindow is set, requests wait here (keyed
	// by batch key) for up to the window before dispatching as one job —
	// several compatible requests, or a lone one. formMu guards the map;
	// lock order is sendMu before formMu.
	formMu  sync.Mutex
	forming map[batchKey]*formingBatch

	// defGen counts successful Defines. Every worker compares it at job
	// pickup and closes all its prepared handles when it moved — the one
	// invalidation rule for everything a worker caches.
	defGen atomic.Uint64

	handleHits   atomic.Int64 // handle lookups answered from a worker's cache
	handleMisses atomic.Int64 // handle lookups that had to prepare

	batches     atomic.Int64 // merged batch jobs executed
	batchSplits atomic.Int64 // batches degraded to solo member evaluations
	batchShared atomic.Int64 // network nodes cross-expression CSE eliminated

	served   atomic.Int64
	failed   atomic.Int64
	expired  atomic.Int64
	rejected atomic.Int64
	rerouted atomic.Int64 // jobs pushed back to the queue off a tripped worker
	restarts []atomic.Int64
	acc      ocl.Accumulator

	// Observability: the shared metrics registry, the request tracer
	// (nil when disabled), per-worker busy time for utilisation gauges,
	// and the request-latency histograms the workers feed.
	reg           *obs.Registry
	tracer        *obs.Tracer
	busy          []atomic.Int64 // per-worker cumulative execution ns
	waitHist      *obs.Histogram
	runHist       *obs.Histogram
	formingHist   *obs.Histogram // time spent in the batch forming window
	batchSizeHist *obs.Histogram // members per executed batch, encoded as µs

	// Continuous profiling: every worker engine deposits one EvalRecord
	// per evaluation into perf (a sharded ring shared by the whole
	// pool); flightDumps counts the postmortems DumpFlight wrote. meta
	// stamps both the JSONL snapshots and the flight dumps with
	// build/host identity.
	perf        *perfdb.Recorder
	flightDumps atomic.Int64
	meta        perfdb.Meta

	start    time.Time
	closedAt atomic.Int64 // unix ns; 0 while the pool is open

	closeOnce sync.Once
	closeErr  error
}

// NewPool builds and starts a pool.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 50 * time.Millisecond
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 16
	}
	v, err := parseVariant(Request{Opt: cfg.Opt, Strategy: cfg.Strategy}, variant{lvl: passes.LevelO2})
	if err != nil {
		return nil, err
	}
	p := &Pool{
		cfg:      cfg,
		v:        v,
		comp:     compile.NewCompiler(),
		queue:    make(chan *job, cfg.QueueDepth),
		done:     make(chan struct{}),
		forming:  make(map[batchKey]*formingBatch),
		reg:      obs.NewRegistry(),
		busy:     make([]atomic.Int64, cfg.Workers),
		restarts: make([]atomic.Int64, cfg.Workers),
		start:    time.Now(),
	}
	p.breakers = make([]*breaker, cfg.Workers)
	for i := range p.breakers {
		p.breakers[i] = newBreaker(cfg.BreakerCooldown)
	}
	if cfg.TraceKeep >= 0 {
		p.tracer = obs.NewTracer(cfg.TraceKeep)
	}
	p.perf = perfdb.NewRecorder(0)
	p.meta = perfdb.CollectMeta(cfg.Device.String())
	if cfg.SlowThreshold > 0 && p.tracer != nil {
		var logMu sync.Mutex
		threshold := cfg.SlowThreshold
		p.tracer.SetSlow(threshold, func(sp *obs.Span) {
			logMu.Lock()
			defer logMu.Unlock()
			fmt.Fprintf(os.Stderr, "serve: slow request: %v >= %v\n", sp.Duration(), threshold)
			sp.WriteText(os.Stderr)
		})
	}
	p.registerMetrics()
	for i := 0; i < cfg.Workers; i++ {
		eng, err := p.newEngine(i)
		if err != nil {
			return nil, err
		}
		p.engines = append(p.engines, eng)
	}
	for i := 0; i < cfg.Workers; i++ {
		p.workers.Add(1)
		go p.worker(i)
	}
	return p, nil
}

// newEngine builds one worker's engine on a fresh simulated device:
// used at pool construction and again whenever a worker replaces a dead
// or panicked device. Recovery is armed with a per-worker jitter seed,
// and FaultPlanFor (if set) re-attaches the worker's chaos schedule to
// the new context.
func (p *Pool) newEngine(worker int) (*dfg.Engine, error) {
	dev, err := dfg.NewDeviceFor(dfg.Config{Device: p.cfg.Device})
	if err != nil {
		return nil, err
	}
	eng, err := dfg.NewWith(dev, p.cfg.Strategy, p.comp)
	if err != nil {
		return nil, err
	}
	eng = eng.View(p.v.lvl, p.v.strat)
	// Workers pass their per-request span into EvalTracedCtx, so the
	// engines get only the registry (per-fingerprint histograms).
	eng.Instrument(nil, p.reg)
	// Derived per-request variant engines are views of this one, so the
	// recorder pointer rides along into every View a worker derives.
	eng.SetPerfRecorder(p.perf)
	eng.SetRecovery(int64(worker) + 1)
	if p.cfg.FaultPlanFor != nil {
		eng.InjectFaults(p.cfg.FaultPlanFor(worker))
	}
	return eng, nil
}

// engine returns worker i's current engine.
func (p *Pool) engine(i int) *dfg.Engine {
	p.engMu.RLock()
	defer p.engMu.RUnlock()
	return p.engines[i]
}

// uptime is the pool's lifetime, frozen at Close so post-shutdown
// scrapes and reports stay meaningful.
func (p *Pool) uptime() time.Duration {
	end := time.Now()
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
	outcomes := map[string]*atomic.Int64{
		"served": &p.served, "failed": &p.failed,
		"expired": &p.expired, "rejected": &p.rejected,
	}
	for name, src := range outcomes {
		src := src
		r.CounterFunc("dfg_requests_total", "Requests by outcome.",
			obs.Labels{"outcome": name}, func() float64 { return float64(src.Load()) })
	}
	r.GaugeFunc("dfg_queue_depth", "Requests waiting in the bounded queue.",
		nil, func() float64 { return float64(len(p.queue)) })
	r.GaugeFunc("dfg_queue_capacity", "Configured queue bound.",
		nil, func() float64 { return float64(p.cfg.QueueDepth) })
	r.GaugeFunc("dfg_workers", "Pool size (engines / worker goroutines).",
		nil, func() float64 { return float64(p.cfg.Workers) })
	r.GaugeFunc("dfg_uptime_seconds", "Time since the pool started (frozen at Close).",
		nil, func() float64 { return p.uptime().Seconds() })

	// A hot request is answered from its worker's handle cache and never
	// reaches the shared caches below: those count handle misses only.
	r.CounterFunc("dfg_handle_cache_hits_total", "Requests (merged batches count once) answered from a worker's open prepared handle.",
		nil, func() float64 { return float64(p.handleHits.Load()) })
	r.CounterFunc("dfg_handle_cache_misses_total", "Handle lookups that prepared: first sight, evicted, or flushed by a Define.",
		nil, func() float64 { return float64(p.handleMisses.Load()) })
	r.CounterFunc("dfg_plan_cache_hits_total", "Shared plan-cache hits.",
		nil, func() float64 { return float64(p.comp.Stats().PlanHits) })
	r.CounterFunc("dfg_plan_cache_misses_total", "Shared plan-cache misses.",
		nil, func() float64 { return float64(p.comp.Stats().PlanMisses) })
	r.CounterFunc("dfg_plan_builds_total", "Execution plans actually constructed (deduplicated misses).",
		nil, func() float64 { return float64(p.comp.Stats().PlanBuilds) })
	r.GaugeFunc("dfg_plan_cache_entries", "Cached execution plans.",
		nil, func() float64 { return float64(p.comp.Stats().PlanEntries) })

	// Buffer-arena counters, summed across every worker engine at scrape
	// time. Workers may replace their engine after a panic or device
	// loss, so the closures read the slice under engMu.
	arena := func(get func(ocl.ArenaStats) float64) func() float64 {
		return func() float64 {
			p.engMu.RLock()
			defer p.engMu.RUnlock()
			var sum float64
			for _, eng := range p.engines {
				sum += get(eng.ArenaStats())
			}
			return sum
		}
	}
	r.CounterFunc("dfg_arena_buffers_reused_total", "Device buffers served from arena free lists.",
		nil, arena(func(s ocl.ArenaStats) float64 { return float64(s.Reused) }))
	r.CounterFunc("dfg_arena_buffers_allocated_total", "Device buffers freshly allocated through arenas.",
		nil, arena(func(s ocl.ArenaStats) float64 { return float64(s.Allocated) }))
	r.CounterFunc("dfg_arena_uploads_total", "Resident-source uploads that moved data.",
		nil, arena(func(s ocl.ArenaStats) float64 { return float64(s.Uploads) }))
	r.CounterFunc("dfg_arena_upload_skips_total", "Resident-source uploads skipped (content unchanged).",
		nil, arena(func(s ocl.ArenaStats) float64 { return float64(s.UploadsSkipped) }))
	r.GaugeFunc("dfg_arena_resident_bytes", "Device memory pinned by resident source buffers.",
		nil, arena(func(s ocl.ArenaStats) float64 { return float64(s.ResidentBytes) }))
	r.GaugeFunc("dfg_arena_pooled_bytes", "Device memory idle in arena free lists.",
		nil, arena(func(s ocl.ArenaStats) float64 { return float64(s.PooledBytes) }))
	r.CounterFunc("dfg_arena_evictions_total", "Arena buffers evicted under device memory pressure.",
		nil, arena(func(s ocl.ArenaStats) float64 { return float64(s.Evictions) }))

	// Fault-tolerance series: circuit-breaker positions, engine rebuilds
	// (panic recoveries and dead-device replacements), and jobs rerouted
	// off tripped workers. dfg_retries_total and dfg_fallback_total are
	// written by the engines' recovery loops into this same registry.
	r.CounterFunc("dfg_requests_rerouted_total", "Jobs requeued off a tripped worker's device.",
		nil, func() float64 { return float64(p.rerouted.Load()) })
	for i := range p.breakers {
		i := i
		labels := obs.Labels{"worker": strconv.Itoa(i)}
		r.GaugeFunc("dfg_breaker_state", "Circuit-breaker position (0 closed, 1 half-open, 2 open).",
			labels, func() float64 { return float64(p.breakers[i].State()) })
		r.CounterFunc("dfg_breaker_trips_total", "Times the worker's breaker opened.",
			labels, func() float64 { return float64(p.breakers[i].Trips()) })
		r.CounterFunc("dfg_worker_restarts_total", "Engine rebuilds after a panic or dead device.",
			labels, func() float64 { return float64(p.restarts[i].Load()) })
	}

	r.CounterFunc("dfg_compile_cache_hits_total", "Shared compile-cache hits.",
		nil, func() float64 { return float64(p.comp.Stats().Hits) })
	r.CounterFunc("dfg_compile_cache_misses_total", "Shared compile-cache misses.",
		nil, func() float64 { return float64(p.comp.Stats().Misses) })
	r.CounterFunc("dfg_compile_builds_total", "Networks actually built (deduplicated misses).",
		nil, func() float64 { return float64(p.comp.Stats().Compiles) })
	r.GaugeFunc("dfg_compile_inflight", "Builds running right now (singleflight leaders).",
		nil, func() float64 { return float64(p.comp.Stats().Inflight) })
	r.GaugeFunc("dfg_compile_cache_entries", "Cached compiled networks.",
		nil, func() float64 { return float64(p.comp.Stats().Entries) })

	for i := range p.busy {
		i := i
		labels := obs.Labels{"worker": strconv.Itoa(i)}
		r.CounterFunc("dfg_worker_busy_seconds_total", "Cumulative execution time per worker.",
			labels, func() float64 { return time.Duration(p.busy[i].Load()).Seconds() })
		r.GaugeFunc("dfg_worker_utilization", "Fraction of pool uptime the worker spent executing.",
			labels, func() float64 {
				up := p.uptime().Seconds()
				if up <= 0 {
					return 0
				}
				return time.Duration(p.busy[i].Load()).Seconds() / up
			})
	}

	deviceCounters := []struct {
		name, help string
		get        func(ocl.Profile) float64
	}{
		{"dfg_device_writes_total", "Host-to-device transfers across all workers.",
			func(pr ocl.Profile) float64 { return float64(pr.Writes) }},
		{"dfg_device_reads_total", "Device-to-host transfers across all workers.",
			func(pr ocl.Profile) float64 { return float64(pr.Reads) }},
		{"dfg_device_kernels_total", "Kernel launches across all workers.",
			func(pr ocl.Profile) float64 { return float64(pr.Kernels) }},
		{"dfg_device_write_bytes_total", "Bytes moved host-to-device.",
			func(pr ocl.Profile) float64 { return float64(pr.WriteBytes) }},
		{"dfg_device_read_bytes_total", "Bytes moved device-to-host.",
			func(pr ocl.Profile) float64 { return float64(pr.ReadBytes) }},
		{"dfg_device_write_seconds_total", "Modeled host-to-device transfer time.",
			func(pr ocl.Profile) float64 { return pr.WriteTime.Seconds() }},
		{"dfg_device_read_seconds_total", "Modeled device-to-host transfer time.",
			func(pr ocl.Profile) float64 { return pr.ReadTime.Seconds() }},
		{"dfg_device_kernel_seconds_total", "Modeled kernel execution time.",
			func(pr ocl.Profile) float64 { return pr.KernelTime.Seconds() }},
	}
	for _, dc := range deviceCounters {
		get := dc.get
		r.CounterFunc(dc.name, dc.help, nil, func() float64 {
			prof, _, _ := p.acc.Snapshot()
			return get(prof)
		})
	}
	r.GaugeFunc("dfg_peak_device_bytes", "Largest single-run device-memory high-water mark.",
		nil, func() float64 {
			_, _, peak := p.acc.Snapshot()
			return float64(peak)
		})

	// Per-pass optimiser counters, read at scrape time from the shared
	// compiler's aggregates (every worker compiles through one compiler,
	// so the totals are pool-wide).
	for _, pass := range passes.Names() {
		pass := pass
		labels := obs.Labels{"pass": pass}
		r.CounterFunc("dfg_pass_runs_total", "Optimisation pass executions.",
			labels, func() float64 { return float64(p.comp.PassStat(pass).Runs) })
		r.CounterFunc("dfg_pass_nodes_removed_total", "Dataflow nodes removed per optimisation pass.",
			labels, func() float64 { return float64(p.comp.PassStat(pass).NodesRemoved) })
		r.CounterFunc("dfg_pass_seconds", "Cumulative time spent in each optimisation pass.",
			labels, func() float64 { return p.comp.PassStat(pass).Seconds })
	}

	// Continuous-profiling and flight-recorder health, plus the Go
	// runtime's own gauges (goroutines, heap, GC pauses) so the scrape
	// covers the process serving the pool, not just the pool.
	r.CounterFunc("dfg_perf_records_total", "Evaluation records deposited in the perf recorder.",
		nil, func() float64 { return float64(p.perf.Recorded()) })
	r.CounterFunc("dfg_perf_records_dropped_total", "Perf records overwritten in the ring before a flush.",
		nil, func() float64 { return float64(p.perf.Dropped()) })
	r.CounterFunc("dfg_flight_dumps_total", "Flight-recorder postmortem dumps written.",
		nil, func() float64 { return float64(p.flightDumps.Load()) })
	obs.RegisterRuntimeMetrics(r)

	// Batch-forming scheduler series. The size histogram reuses the
	// log-bucketed duration histogram by encoding a batch of n members
	// as n microseconds, so its quantiles read back as member counts in
	// µs units.
	r.CounterFunc("dfg_batches_total", "Merged batch jobs executed.",
		nil, func() float64 { return float64(p.batches.Load()) })
	r.CounterFunc("dfg_batch_splits_total", "Batches degraded to per-member solo evaluation after a merged run failed.",
		nil, func() float64 { return float64(p.batchSplits.Load()) })
	r.CounterFunc("dfg_batch_cse_nodes_shared_total", "Dataflow nodes cross-expression CSE eliminated across executed batches.",
		nil, func() float64 { return float64(p.batchShared.Load()) })
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

const (
	// maxPreparedPerWorker bounds each worker's cache of open prepared
	// handles (and with it the device memory its arena keeps resident
	// and the engine views it keeps alive).
	maxPreparedPerWorker = 64
	// breakerThreshold is the consecutive device-fault failures that
	// open a worker's circuit breaker; a device-lost fault trips it
	// immediately regardless.
	breakerThreshold = 5
	// replaceAfterProbes is the consecutive failed half-open probes
	// after which a worker gives up on its device and replaces it with
	// a fresh one.
	replaceAfterProbes = 3
)

// worker drains the queue until it is closed, running each job on its
// private engine. Closing the queue (not a signal channel) is what ends
// the loop, so every job accepted before Close is still served.
//
// Every job — one member or several — takes the same road (run): one
// gate, then, for several members, one merged attempt, then the
// per-member loop for whoever the merged attempt did not answer.
//
// The gate (admit) observes each member's queue wait, fails members that
// expired while queued without touching the device, and asks the
// worker's circuit breaker once for the whole job: while the breaker is
// open the job is rerouted onto the queue for a healthy peer (or, when
// it cannot be, every member fails ErrWorkerUnavailable); after the
// cooldown the device is healed and the job goes through as the one
// half-open probe; enough failed probes replace the device outright.
//
// Evaluations run through prepared handles behind one panic shield
// (eval): the worker keeps a bounded cache of open handles keyed by
// variant and ordered member texts, looked up BEFORE anything is parsed
// or compiled, so a hot text costs a map lookup, its device buffers
// recycle through the engine's arena and its unchanged sources stay
// device-resident across requests. A Define flushes the whole cache
// (Pool.defGen); when the worker exits it closes every handle, draining
// the engine's arena. A panic in an evaluation — an injected chaos panic
// or a genuine bug — becomes a typed ErrWorkerPanic and the engine is
// rebuilt on a fresh device.
//
// Each member answered by the per-member loop records a "request" trace
// rooted at enqueue time: "batch-forming" and "queue-wait" children
// covering the time before pickup, then the engine's pipeline spans —
// compile and plan on a handle miss only (the root carries
// handle=hit|miss), bind and execute with device events always, plus
// any retry/fallback spans from the engine's recovery loop — so a
// request's stages account for its full end-to-end latency, and the
// slow-request threshold applies to what the client actually waited. A
// merged run records one "batch" trace with a "member" child each.
func (p *Pool) worker(id int) {
	defer p.workers.Done()
	ws := &workerState{
		id:      id,
		eng:     p.engine(id),
		br:      p.breakers[id],
		handles: make(map[handleKey]handle),
	}
	defer ws.closeAll()
	for j := range p.queue {
		p.run(ws, j)
	}
}

// workerState is one worker goroutine's private state: its engine, its
// circuit breaker, and its bounded cache of open prepared handles. Only
// the owning worker touches any of it.
type workerState struct {
	id      int
	eng     *dfg.Engine
	br      *breaker
	handles map[handleKey]handle
	defGen  uint64 // Pool.defGen when the handles were last flushed
}

// handleKey keys a worker's open handles by the request's variant — the
// values its Opt and Strategy name, parsed once by EvalAsync, so every
// spelling of one variant shares a handle — plus the ordered member
// texts ("\x01"-joined; one text for a lone request). Ordered, because a
// prepared batch demuxes positionally over the exact sequence it was
// prepared with; texts, not fingerprints, because a lookup must not
// parse — two spellings of one expression hold two handles on the one
// shared plan.
type handleKey struct {
	v     variant
	texts string
}

// handle is one open prepared evaluation and the engine view that
// prepared it (the worker's engine, or its derivation for the key's
// variant), which is where the next perf record's queue wait is stamped.
// A handle of one text is the PreparedBatch solo fast path: an ordinary
// Prepared, recovery ladder and tiered routing intact.
type handle struct {
	eng *dfg.Engine
	pb  *dfg.PreparedBatch
}

// closeAll closes every open prepared handle, draining the engine's
// buffer arena.
func (ws *workerState) closeAll() {
	for _, h := range ws.handles {
		h.pb.Close()
	}
	clear(ws.handles)
}

// restartWorker discards the worker's (possibly poisoned) engine and its
// prepared handles, builds a replacement on a fresh device, and
// publishes it for the metric scrapers.
func (p *Pool) restartWorker(ws *workerState) {
	ws.closeAll()
	fresh, err := p.newEngine(ws.id)
	if err != nil {
		// Device construction is deterministic; failing here means the
		// pool config itself is bad, which NewPool would have caught.
		// Keep limping on the old engine rather than killing the worker.
		fmt.Fprintf(os.Stderr, "serve: worker %d: engine rebuild failed: %v\n", ws.id, err)
		return
	}
	ws.eng = fresh
	p.engMu.Lock()
	p.engines[ws.id] = fresh
	p.engMu.Unlock()
	ws.br.reset()
	p.restarts[ws.id].Add(1)
}

// run takes one job through the worker. A merged attempt that fails in
// any way — a panic, a device fault, a merge or plan error, a member
// that does not compile — answers nobody: it degrades to the per-member
// loop, where every member re-runs alone with the recovery ladder armed
// (the merged run bypasses it: the ladder re-plans from expression
// text, which a super-network does not have), so a member-specific
// failure costs only that member its result.
func (p *Pool) run(ws *workerState, j *job) {
	pickup := time.Now()
	// Handles prepared before the latest Define may hold its old body.
	// The generation is read before anything is prepared under it, so a
	// handle is never newer than the generation it is filed under.
	if g := p.defGen.Load(); g != ws.defGen {
		ws.closeAll()
		ws.defGen = g
	}
	ok, probe := p.admit(ws, j, pickup)
	if !ok {
		return
	}
	if len(j.members) > 1 {
		if p.runMerged(ws, j, pickup) {
			return
		}
		pickup, probe = time.Now(), false
	}
	for _, m := range j.members {
		p.runSolo(ws, m, j.hops, pickup, probe)
	}
}

// admit is the gate in front of the device. It leaves the job's live
// members in j.members and reports whether they may run here, and
// whether as the breaker's half-open probe.
func (p *Pool) admit(ws *workerState, j *job, pickup time.Time) (ok, probe bool) {
	live := j.members[:0]
	for _, m := range j.members {
		// Record queue wait for every dequeued member, including ones
		// that expired while queued — otherwise the histogram only sees
		// survivors and under overload (exactly when wait matters) its
		// quantiles are biased toward short waits. The forming window was
		// spent deliberately, and is observed separately at flush.
		p.waitHist.Observe(pickup.Sub(m.queuedAt()))
		if err := m.ctx.Err(); err != nil {
			// Expired (or canceled) while queued: fails alone, without
			// touching the device; the rest of the job still runs.
			p.expired.Add(1)
			m.reply(Response{Worker: ws.id, Wait: pickup.Sub(m.enqueued), Err: fmt.Errorf("%w: %v", ErrQueueTimeout, err)})
			continue
		}
		live = append(live, m)
	}
	j.members = live
	if len(live) == 0 {
		return false, false
	}
	ok, probe = ws.br.allow(pickup)
	if ok {
		if probe {
			// Half-open health probe: heal a latched device loss first,
			// simulating the driver reset the cooldown stood in for.
			ws.eng.Heal()
		}
		return true, probe
	}
	// Tripped device, still cooling: push the job back for a healthy
	// peer. Holding it briefly first (longer each hop) parks this worker
	// while its peers sit blocked on the queue, so the requeued job hands
	// off to one of them instead of bouncing straight back here. If it
	// cannot be requeued (queue full, pool closing, or the job already
	// bounced across the whole pool), fail its members with the typed
	// unavailability error.
	hold := time.Duration(j.hops+1) * 200 * time.Microsecond
	if hold > 2*time.Millisecond {
		hold = 2 * time.Millisecond
	}
	time.Sleep(hold)
	if p.reroute(j) {
		p.rerouted.Add(1)
		return false, false
	}
	for _, m := range live {
		p.failed.Add(1)
		m.reply(Response{Worker: ws.id, Wait: pickup.Sub(m.enqueued), Err: fmt.Errorf("%w: worker %d breaker open", ErrWorkerUnavailable, ws.id)})
	}
	return false, false
}

// runSolo evaluates one member alone on the worker's engine — the
// request trace, outcome counters and breaker bookkeeping — and delivers
// its response.
func (p *Pool) runSolo(ws *workerState, m *member, hops int, pickup time.Time, probe bool) {
	root := p.tracer.Start("request")
	if root != nil {
		root.Start = m.enqueued // the trace covers queue (and forming) wait too
		root.SetAttr("worker", strconv.Itoa(ws.id)).SetAttr("expr", m.req.Expr)
		if !m.formed.IsZero() {
			root.Event("batch-forming", "", m.enqueued, m.formed)
		}
		root.Event("queue-wait", "", m.queuedAt(), pickup)
		if probe {
			root.SetAttr("breaker", "probe")
		}
		if hops > 0 {
			// The tracer keeps every rerouted request's trace.
			root.SetAttr("rerouted", strconv.Itoa(hops))
		}
	}
	resp := Response{Worker: ws.id, Wait: pickup.Sub(m.enqueued)}
	// The request's deadline threads into execution: a request that
	// times out mid-plan stops at the next kernel-launch boundary instead
	// of finishing work nobody is waiting for.
	bres, err := p.eval(m.ctx, ws, root, pickup.Sub(m.queuedAt()), []string{m.req.Expr}, m)
	if err == nil {
		resp.Result = bres.Results[0]
	}
	resp.Err = err
	resp.Run = time.Since(pickup)
	// Finishing publishes the trace before any breaker bookkeeping, so a
	// dump triggered by this very request includes its own span tree.
	if root != nil {
		if err != nil {
			root.SetAttr("error", err.Error())
		}
		root.Finish()
	}
	p.busy[ws.id].Add(int64(resp.Run))
	p.runHist.Observe(resp.Run)
	if err != nil {
		p.failed.Add(1)
	} else {
		p.served.Add(1)
		p.acc.Add(resp.Result.Profile, resp.Result.PeakDeviceBytes)
	}
	p.settle(ws, err, pickup)
	m.reply(resp)
}

// runMerged attempts the job's members as one merged super-network —
// subtrees shared between member expressions execute once — and fans
// the root outputs back out, one response per member. It reports
// whether it answered them; on any failure it has answered none.
func (p *Pool) runMerged(ws *workerState, j *job, pickup time.Time) bool {
	members := j.members
	m0 := members[0]              // members share N, variant and inputs (batchKey)
	queuedAt := members[0].formed // and the flush that queued them
	// The batch trace: one root spanning the whole merged run, each
	// member's request a child under it (with its forming wait), the
	// engine's compile/merge/plan/execute spans below — /trace shows the
	// batch as one tree.
	root := p.tracer.Start("batch")
	if root != nil {
		root.Start = queuedAt
		root.SetAttr("worker", strconv.Itoa(ws.id))
		root.Event("queue-wait", "", queuedAt, pickup)
		if j.hops > 0 {
			root.SetAttr("rerouted", strconv.Itoa(j.hops))
		}
		root.SetAttr("batch", strconv.Itoa(len(members)))
	}
	texts := make([]string, len(members))
	spans := make([]*obs.Span, len(members))
	for i, m := range members {
		texts[i] = m.req.Expr
		if ms := root.Child("member"); ms != nil {
			ms.Start = m.enqueued
			ms.SetAttr("expr", m.req.Expr)
			ms.Event("batch-forming", "", m.enqueued, m.formed)
			spans[i] = ms
		}
	}
	// No member's deadline governs the shared run.
	bres, err := p.eval(nil, ws, root, pickup.Sub(queuedAt), texts, m0)
	run := time.Since(pickup)
	for _, ms := range spans {
		ms.Finish()
	}
	if err != nil {
		if root != nil {
			root.SetAttr("error", err.Error())
			root.SetAttr("degraded", "split-to-solo")
			root.Finish()
		}
		p.batchSplits.Add(1)
		p.settle(ws, err, pickup)
		return false
	}
	if root != nil {
		root.SetAttr("shared", strconv.Itoa(bres.Shared))
		root.Finish()
	}
	p.batches.Add(1)
	p.batchSizeHist.Observe(time.Duration(len(members)) * time.Microsecond)
	p.batchShared.Add(int64(bres.Shared))
	p.busy[ws.id].Add(int64(run))
	res0 := bres.Results[0]
	p.acc.Add(res0.Profile, res0.PeakDeviceBytes)
	p.settle(ws, nil, pickup)
	for i, m := range members {
		p.served.Add(1)
		p.runHist.Observe(run)
		m.reply(Response{Result: bres.Results[i], Worker: ws.id, Wait: pickup.Sub(m.enqueued), Run: run})
	}
	return true
}

// settle feeds one evaluation's outcome to the worker's health
// machinery. A panic replaces the engine. Of the errors only device
// faults count: a lost device trips the breaker immediately, transient
// or unexplained device errors count toward the consecutive threshold;
// errors that are not device faults (bad expressions, capacity
// exhaustion after the ladder ran out) say nothing about device health
// and leave the breaker alone. Once enough half-open probes have failed
// in a row, the device is declared dead and replaced.
func (p *Pool) settle(ws *workerState, err error, now time.Time) {
	if errors.Is(err, ErrWorkerPanic) {
		// The device (or a kernel on it) panicked; the engine state is
		// suspect. Dump the recent traces, replace the engine, and keep
		// serving.
		p.DumpFlight("worker-panic")
		p.restartWorker(ws)
		return
	}
	lost := false
	switch {
	case err == nil:
		if !ws.eng.DeviceLost() {
			ws.br.success()
			return
		}
		// The request was rescued by the recovery ladder's host-VM rung,
		// but the device underneath is still lost: trip the breaker
		// anyway so the cooldown/probe machinery heals (or replaces) it
		// instead of every request limping through the VM forever.
		lost = true
	default:
		// Declared here, not at the top: errors.As moves the target to the
		// heap, and only failures should pay for it.
		var fe *ocl.FaultError
		if !errors.As(err, &fe) {
			return
		}
		switch ocl.Classify(err) {
		case ocl.ClassDeviceLost:
			lost = true
		case ocl.ClassTransient, ocl.ClassPermanent:
		default:
			return
		}
	}
	if ws.br.failure(now, lost) {
		// The failure that opens a breaker is exactly the postmortem
		// moment: dump while the failing request's span tree is still in
		// the tracer's recent ring.
		p.DumpFlight("breaker-trip")
	}
	if ws.br.failedProbes() >= replaceAfterProbes {
		p.restartWorker(ws)
	}
}

// reroute pushes a job a tripped worker drew back onto the queue for a
// healthy peer, without blocking (a blocking send from a consumer can
// deadlock the pool). It refuses once the job has bounced more than
// twice around the pool, and during shutdown (jobs already accepted
// must resolve now, not re-enter a closing queue).
func (p *Pool) reroute(j *job) bool {
	if j.hops >= 4*p.cfg.Workers+4 {
		return false
	}
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.closed {
		return false
	}
	j.hops++
	select {
	case p.queue <- j:
		return true
	default:
		j.hops--
		return false
	}
}

// eval evaluates texts — one member's, or a job's in member order —
// through the worker's handle cache, behind the worker's panic shield:
// a panic anywhere below becomes a typed ErrWorkerPanic error instead of
// crashing the worker goroutine and deadlocking every queued client.
// Strategy cleanup runs during the unwind (buffer releases are
// deferred), so the engine's arena still drains; the caller replaces
// the engine anyway. m carries the shape the texts share (N, inputs,
// variant); qwait lands on the evaluation's perf record.
func (p *Pool) eval(ctx context.Context, ws *workerState, root *obs.Span, qwait time.Duration,
	texts []string, m *member) (res *dfg.BatchResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: worker %d: %v", ErrWorkerPanic, ws.id, r)
		}
	}()
	h, err := p.open(ws, root, texts, m)
	if err != nil {
		return nil, err
	}
	h.eng.NoteQueueWait(qwait)
	return h.pb.EvalTracedCtx(ctx, root, m.req.N, m.req.Inputs)
}

// open returns the worker's handle for texts under the member's
// variant. A hit is a map lookup and nothing else. A miss derives the
// variant's engine view (views share the worker's device environment
// and arena, preserving the single-goroutine discipline), prepares the
// texts — recording the compile and plan spans under root, so a text's
// first request shows the full stage set — and files the handle,
// closing an arbitrary old one at the bound; the plan that one wrapped
// stays in the shared compiler cache, so re-preparing it is two lookups
// there.
func (p *Pool) open(ws *workerState, root *obs.Span, texts []string, m *member) (handle, error) {
	key := handleKey{m.v, strings.Join(texts, "\x01")}
	if h, ok := ws.handles[key]; ok {
		p.handleHits.Add(1)
		root.SetAttr("handle", "hit")
		return h, nil
	}
	p.handleMisses.Add(1)
	root.SetAttr("handle", "miss")
	eng := ws.eng.View(m.v.lvl, m.v.strat)
	pb, err := eng.PrepareBatchTraced(root, texts)
	if err != nil {
		return handle{}, err
	}
	if len(ws.handles) >= maxPreparedPerWorker {
		for k, old := range ws.handles {
			old.pb.Close()
			delete(ws.handles, k)
			break
		}
	}
	h := handle{eng, pb}
	ws.handles[key] = h
	return h, nil
}

// EvalAsync submits a request and returns a buffered channel that will
// receive exactly one Response. The request's deadline (Timeout, the
// pool default, or ctx — whichever ends first) covers queue wait; once a
// worker starts executing, the evaluation runs to completion.
func (p *Pool) EvalAsync(ctx context.Context, req Request) <-chan Response {
	resp := make(chan Response, 1)
	v, err := parseVariant(req, p.v)
	if err != nil {
		p.failed.Add(1)
		resp <- Response{Worker: -1, Err: err}
		return resp
	}
	if ctx == nil {
		ctx = context.Background()
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = p.cfg.DefaultTimeout
	}
	var cancel context.CancelFunc
	switch {
	case timeout > 0:
		ctx, cancel = context.WithTimeout(ctx, timeout)
	case ctx.Done() == nil:
		// Nothing can end the request early, so there is no context of
		// its own to derive and release.
		cancel = func() {}
	default:
		ctx, cancel = context.WithCancel(ctx)
	}

	// Register as a sender under the read lock so Close can wait for
	// every in-flight enqueue before closing the queue channel.
	p.sendMu.RLock()
	if p.closed {
		p.sendMu.RUnlock()
		cancel()
		p.rejected.Add(1)
		resp <- Response{Worker: -1, Err: ErrPoolClosed}
		return resp
	}
	m := &member{req: req, v: v, ctx: ctx, cancel: cancel, enqueued: time.Now(), resp: resp}
	if p.cfg.BatchWindow > 0 {
		// Batch-forming arm: the member joins its forming batch under the
		// same read lock, so Close's final sweep is guaranteed to see it.
		// If this join filled the batch, flush it now (form already took
		// the sender slot); the dispatch goroutine keeps EvalAsync
		// non-blocking when the queue is full.
		flush := p.form(m)
		p.sendMu.RUnlock()
		if flush != nil {
			go p.dispatch(flush)
		}
		return resp
	}
	p.senders.Add(1)
	p.sendMu.RUnlock()

	// Unbatched arm. It is not dispatch with a member list of one: this
	// blocking send also selects on the request's own context, so a
	// request stuck behind a full queue is rejected at its deadline; a
	// formed batch has no one context to wait on, and its members'
	// deadlines are checked at pickup instead.
	go func() {
		defer p.senders.Done()
		select {
		case p.queue <- &job{members: []*member{m}}:
			// A worker owns the job now (possibly after Close: jobs that
			// made it into the queue are drained gracefully).
		case <-ctx.Done():
			p.rejected.Add(1)
			m.reply(Response{Worker: -1, Err: fmt.Errorf("%w: queue full: %v", ErrQueueTimeout, ctx.Err())})
		case <-p.done:
			p.rejected.Add(1)
			m.reply(Response{Worker: -1, Err: ErrPoolClosed})
		}
	}()
	return resp
}

// variant is what a request's Opt and Strategy name, as values.
type variant struct {
	lvl   passes.Level
	strat strategy.Strategy
}

// parseVariant parses a request's Opt and Strategy over v, which stands
// in for an empty field: the one place serve reads the names.
func parseVariant(req Request, v variant) (variant, error) {
	var err error
	if req.Opt != "" {
		v.lvl, err = passes.ParseLevel(req.Opt)
	}
	if req.Strategy != "" && err == nil {
		v.strat, err = strategy.ForName(req.Strategy)
	}
	if err != nil {
		err = fmt.Errorf("dfg: %w", err)
	}
	return v, err
}

// formingBatch is one in-progress batch accumulating members until its
// window timer fires or it fills to BatchMax.
type formingBatch struct {
	key     batchKey
	members []*member
	timer   *time.Timer
	flushed bool
}

// batchKey groups requests that may merge into one batch: same element
// count, variant and input binding (inputIdentity). A merged
// super-network executes against one binding, so requests carrying
// different input sets never merge.
type batchKey struct {
	n      int
	v      variant
	inputs string
}

// inputIdentity spells a binding by identity, not content: each input's
// quoted name (so no name can forge a separator), the address of its
// first element and its length, in sorted order. A zero-length array
// spells address 0 — it holds nothing, so all of them bind alike.
func inputIdentity(inputs map[string][]float32) string {
	ids := make([]string, 0, len(inputs))
	for name, s := range inputs {
		var addr uintptr
		if len(s) > 0 {
			addr = uintptr(unsafe.Pointer(&s[0]))
		}
		ids = append(ids, strconv.Quote(name)+"@"+strconv.FormatUint(uint64(addr), 16)+"+"+strconv.Itoa(len(s)))
	}
	sort.Strings(ids)
	return strings.Join(ids, "|")
}

// form adds a member to its forming batch, creating the batch (and its
// window timer) on first touch. Called under sendMu.RLock so every
// formed member is visible to Close's final sweep. Returns the member
// set to dispatch when this join filled the batch to BatchMax — the
// sender slot is already taken for the caller — and nil otherwise.
func (p *Pool) form(m *member) []*member {
	key := batchKey{m.req.N, m.v, inputIdentity(m.req.Inputs)}
	p.formMu.Lock()
	defer p.formMu.Unlock()
	g, ok := p.forming[key]
	if !ok {
		g = &formingBatch{key: key}
		p.forming[key] = g
		g.timer = time.AfterFunc(p.cfg.BatchWindow, func() { p.flushTimer(g) })
	}
	g.members = append(g.members, m)
	if len(g.members) >= p.cfg.BatchMax {
		g.flushed = true
		g.timer.Stop()
		delete(p.forming, key)
		p.senders.Add(1)
		return g.members
	}
	return nil
}

// flushTimer is the forming-window expiry path. When the pool is
// closing, the batch is left in the map for Close's final sweep (which
// dispatches straight into the still-open queue); otherwise the batch
// is claimed and dispatched like a filled one.
func (p *Pool) flushTimer(g *formingBatch) {
	p.sendMu.RLock()
	if p.closed {
		p.sendMu.RUnlock()
		return
	}
	p.formMu.Lock()
	if g.flushed {
		p.formMu.Unlock()
		p.sendMu.RUnlock()
		return
	}
	g.flushed = true
	delete(p.forming, g.key)
	members := g.members
	p.formMu.Unlock()
	p.senders.Add(1)
	p.sendMu.RUnlock()
	p.dispatch(members)
}

// flushJob stamps a member set leaving the former and wraps it as the
// one job the queue carries. Forming wait (enqueue to flush) is observed
// here; the members' queue wait starts at the flush stamp.
func (p *Pool) flushJob(members []*member) *job {
	flush := time.Now()
	for _, m := range members {
		p.formingHist.Observe(flush.Sub(m.enqueued))
		m.formed = flush
	}
	return &job{members: members}
}

// dispatch moves a flushed member set into the queue. The caller holds a
// sender slot.
func (p *Pool) dispatch(members []*member) {
	defer p.senders.Done()
	select {
	case p.queue <- p.flushJob(members):
		// A worker owns the job now (possibly after Close: jobs that
		// made it into the queue are drained gracefully).
	case <-p.done:
		for _, m := range members {
			p.rejected.Add(1)
			m.reply(Response{Worker: -1, Err: ErrPoolClosed})
		}
	}
}

// flushAllForming dispatches every still-forming batch straight into
// the queue. Called by Close after closed is set and every in-flight
// sender has resolved: window timers that fire from here on see closed
// and leave their batches for this sweep, and the queue is still open
// with the workers draining it, so the plain sends complete.
func (p *Pool) flushAllForming() {
	p.formMu.Lock()
	groups := make([]*formingBatch, 0, len(p.forming))
	for _, g := range p.forming {
		g.flushed = true
		g.timer.Stop()
		groups = append(groups, g)
	}
	p.forming = make(map[batchKey]*formingBatch)
	p.formMu.Unlock()
	for _, g := range groups {
		p.queue <- p.flushJob(g.members)
	}
}

// Submit is the synchronous form of EvalAsync.
func (p *Pool) Submit(ctx context.Context, req Request) (*dfg.Result, error) {
	r := <-p.EvalAsync(ctx, req)
	return r.Result, r.Err
}

// LiveBuffers sums the unreleased device buffers across every worker's
// current device, including buffers pooled or resident in the engines'
// arenas. After Close (which drains every arena) it must be zero; the
// chaos soak treats anything else as a leak.
func (p *Pool) LiveBuffers() int {
	p.engMu.RLock()
	defer p.engMu.RUnlock()
	var n int
	for _, eng := range p.engines {
		n += eng.LiveBuffers()
	}
	return n
}

// BreakerStates reports each worker's circuit-breaker position.
func (p *Pool) BreakerStates() []string {
	states := make([]string, len(p.breakers))
	for i, b := range p.breakers {
		states[i] = b.State().String()
	}
	return states
}

// Define registers (or replaces) a named expression definition in the
// shared compiler, then invalidates what the workers hold: every request
// submitted after Define returns evaluates against the new body.
// Evaluations already in flight finish against whichever definition
// snapshot they compiled with.
//
// Install first, bump second: a worker that prepares a handle between
// the two files it under the old generation with the new body — merely
// newer than required, and flushed at its next pickup. The generation
// is coarser than the compiler's fingerprints (which invalidate exactly
// the networks that reference the name): a Define of an unrelated name
// costs each worker one flush, and re-preparing after it is a round of
// shared-cache hits — nothing unrelated recompiles. Define is rare.
func (p *Pool) Define(name, text string) error {
	if err := p.comp.Define(name, text); err != nil {
		return err
	}
	p.defGen.Add(1)
	return nil
}

// Definitions lists the shared definition names, sorted.
func (p *Pool) Definitions() []string { return p.comp.Definitions() }

// Close stops accepting requests, waits for queued work to drain, and
// stops the workers. Every request accepted before Close receives a
// response; requests submitted after it fail with ErrPoolClosed. Close
// is idempotent.
//
// Shutdown flushes observability state rather than dropping it: the
// uptime clock freezes (so utilisation gauges stop decaying), and the
// metrics registry, aggregate device profile and trace rings all remain
// readable — Stats, Registry, Tracer and Report keep working on a
// closed pool, and an HTTP introspection endpoint can keep serving
// final state after the workers are gone.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() {
		p.sendMu.Lock()
		p.closed = true
		p.sendMu.Unlock()
		close(p.done)       // unblocks senders stuck on a full queue
		p.senders.Wait()    // every in-flight enqueue has resolved
		p.flushAllForming() // still-forming batches drain into the open queue
		close(p.queue)      // workers drain the remainder and exit
		p.workers.Wait()
		p.closedAt.Store(time.Now().UnixNano()) // freeze uptime for final metrics
		if p.cfg.PerfDir != "" {
			// Persist the perf database after the last worker finishes, so
			// the snapshot covers every served request.
			if _, err := p.FlushPerf(); err != nil {
				p.closeErr = fmt.Errorf("serve: perf flush: %w", err)
			}
		}
	})
	return p.closeErr
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
	if st.Batches > 0 || st.BatchSplits > 0 {
		fmt.Fprintf(w, "%-28s %d executed (p50 size %d), %d split to solo, %d CSE-shared nodes\n",
			"batches:", st.Batches, p.batchSizeHist.Quantile(0.5).Microseconds(),
			st.BatchSplits, st.BatchShared)
		fmt.Fprintf(w, "%-28s p50=%v p90=%v p99=%v\n", "forming wait:",
			p.formingHist.Quantile(0.5).Round(time.Microsecond),
			p.formingHist.Quantile(0.9).Round(time.Microsecond),
			p.formingHist.Quantile(0.99).Round(time.Microsecond))
	}
	if n := p.runHist.Count(); n > 0 {
		fmt.Fprintf(w, "%-28s p50=%v p90=%v p99=%v\n", "run latency:",
			p.runHist.Quantile(0.5).Round(time.Microsecond),
			p.runHist.Quantile(0.9).Round(time.Microsecond),
			p.runHist.Quantile(0.99).Round(time.Microsecond))
		fmt.Fprintf(w, "%-28s p50=%v p90=%v p99=%v\n", "queue wait:",
			p.waitHist.Quantile(0.5).Round(time.Microsecond),
			p.waitHist.Quantile(0.9).Round(time.Microsecond),
			p.waitHist.Quantile(0.99).Round(time.Microsecond))
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
		fmt.Fprintf(w, "%-28s %d (slowest %v)\n", "kept traces:",
			len(kept), slowest(kept).Round(time.Microsecond))
	}
}

// slowest returns the longest duration among the traces.
func slowest(spans []*obs.Span) time.Duration {
	var max time.Duration
	for _, sp := range spans {
		if d := sp.Duration(); d > max {
			max = d
		}
	}
	return max
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
