// Package serve runs derived-field evaluation as a concurrent service:
// a Pool owns N engines — one per worker goroutine, mirroring the
// paper's one-framework-instance-per-MPI-task model — fronted by a
// single shared compile cache (internal/compile), so a hot expression
// compiles exactly once no matter how many workers evaluate it.
//
// Requests enter a bounded queue (queue.go); EvalAsync returns a
// channel, Submit waits on it. A request's deadline covers queue wait:
// one that passes while queued fails without touching a device. Close
// drains the queue — every accepted request gets a response — and then
// stops the workers (worker.go).
//
// With Config.BatchWindow set, requests landing within the window that
// share a batch key (element count, variant, input arrays) form one job
// (batcher.go), evaluated as one cross-expression super-network whose
// root outputs fan back out to every member; a failed merged run
// degrades to per-member evaluation, so batching never drops a request.
//
// The breaker (breaker.go) and the forming batch are pure state
// machines; the locks, the goroutines and the one timer live in the
// Pool around them. Metrics, traces and reports read the pool from
// metrics.go and http.go.
package serve

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

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
//
// Nothing a pool keeps grows with the number of distinct texts it has
// served; every per-text structure is bounded:
//   - the shared compile caches — networks, plans and batch merges — at
//     compile.DefaultMaxEntries (512) entries each, by CLOCK eviction;
//   - each worker's cache of open prepared handles at 64, closing an
//     arbitrary one to admit a new text (and with it the device memory
//     its arena keeps resident);
//   - the tracer's recent and kept rings at TraceKeep traces each;
//   - the perf recorder's ring at 16 × perfdb.DefaultShardCapacity
//     (8 192) records;
//   - the dfg_eval_seconds histogram at 64 fingerprints: the 64
//     observed most recently keep their own series, the rest record
//     under fingerprint="other", and each engine's memo of its series
//     holds at most 64;
//   - the definitions at the names Define installs: a text never adds
//     one.
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
	// or "O2". Default "O2": a service wants fewer kernel launches, not
	// the paper's exact event counts. Request.Opt overrides it per call.
	Opt string
	// DefaultTimeout applies to requests that don't set one. Zero means
	// no timeout.
	DefaultTimeout time.Duration

	// BatchWindow, when positive, turns on the batch-forming scheduler:
	// the pool holds each request for up to this long, merging requests
	// that share a batch key (element count, optimisation level,
	// strategy and input arrays) into one cross-expression super-network
	// evaluated in a single run. Zero (the default) disables batching.
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
	// FlushPerf) write the evaluation records there as schema-versioned
	// JSONL, and DumpFlight its postmortems when a breaker trips or a
	// worker panics. Empty keeps the records in memory, and no dumps.
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
	// "tiered@N". EvalAsync parses Opt and Strategy into a variant once,
	// so equal variants share handles and batches whatever their
	// spelling ("", "tiered" and "tiered@4096" on a "tiered" pool are
	// one). An unknown name fails its request alone, counted as Failed.
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

// Pool is a fixed set of worker engines behind one shared compile cache
// and one bounded request queue. All methods are safe for concurrent
// use.
type Pool struct {
	cfg   Config
	v     variant // Config's, parsed: the workers' and requests' default
	comp  *compile.Compiler
	clock clock
	// wall is set when clock is the wall clock the library reads too:
	// only then is a run timed from the pickup clock stamped to the
	// end the library read (see attempt).
	wall  bool
	queue chan *job
	done  chan struct{}
	ws    []*workerState // one per worker, owned by its goroutine once started

	// engines publishes each worker's current engine for scrapes.
	engines []atomic.Pointer[dfg.Engine]

	// breakers publishes each worker's breaker (breaker.packed) for
	// scrapes; the breaker itself lives in its worker's state.
	breakers []atomic.Int64

	sendMu  sync.RWMutex // guards closed against in-flight senders
	closed  bool
	senders sync.WaitGroup // sender goroutines waiting on a full queue
	workers sync.WaitGroup

	// The batch former (BatchWindow > 0). formMu serialises its events;
	// lock order is sendMu before formMu.
	formMu sync.Mutex
	former former

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

	// Observability: the tracer is nil when disabled.
	reg           *obs.Registry
	tracer        *obs.Tracer
	busy          []atomic.Int64 // per-worker cumulative execution ns
	waitHist      *obs.Histogram
	runHist       *obs.Histogram
	formingHist   *obs.Histogram // time spent in the batch forming window
	batchSizeHist *obs.Histogram // members per executed batch, encoded as µs

	// Continuous profiling: one EvalRecord per evaluation lands in perf;
	// meta stamps snapshots and flight dumps with build/host identity.
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
	p, err := newPool(cfg, nil)
	if err == nil {
		p.startWorkers()
	}
	return p, err
}

// startWorkers starts one goroutine per worker state.
func (p *Pool) startWorkers() {
	p.workers.Add(len(p.ws))
	for _, ws := range p.ws {
		go func(ws *workerState) {
			defer p.workers.Done()
			p.worker(ws)
		}(ws)
	}
}

// newPool builds a pool without starting its workers, on c (nil: the
// wall clock).
func newPool(cfg Config, c clock) (*Pool, error) {
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
		clock:    c,
		queue:    make(chan *job, cfg.QueueDepth),
		done:     make(chan struct{}),
		former:   former{window: cfg.BatchWindow, max: cfg.BatchMax},
		reg:      obs.NewRegistry(),
		engines:  make([]atomic.Pointer[dfg.Engine], cfg.Workers),
		breakers: make([]atomic.Int64, cfg.Workers),
		busy:     make([]atomic.Int64, cfg.Workers),
		restarts: make([]atomic.Int64, cfg.Workers),
	}
	if c == nil {
		p.clock, p.wall = &wallClock{tick: p.tick}, true
	}
	p.start = p.clock.now()
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
		p.engines[i].Store(eng)
		p.ws = append(p.ws, &workerState{id: i, eng: eng, handles: make(map[handleKey]*dfg.Prepared)})
	}
	return p, nil
}

// clock is the pool's time: what it stamps, how long admit holds a
// rerouted job, and the one timer that tells the former a window has
// passed. The tests drive a fake one.
type clock interface {
	now() time.Time
	sleep(d time.Duration)
	// wake asks for one Pool.tick d from now, replacing any asked for
	// before.
	wake(d time.Duration)
}

// wallClock is the production clock: time.Now, time.Sleep and one
// timer, made at the first wake, whose callback is the pool's tick.
type wallClock struct {
	tick  func()
	timer *time.Timer
}

func (*wallClock) now() time.Time        { return time.Now() }
func (*wallClock) sleep(d time.Duration) { time.Sleep(d) }

func (c *wallClock) wake(d time.Duration) {
	if c.timer == nil {
		c.timer = time.AfterFunc(d, c.tick)
		return
	}
	c.timer.Reset(d)
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
	// Workers pass each request's trace root in its context, so the
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

// LiveBuffers sums the unreleased device buffers across every worker's
// current device, including buffers pooled or resident in the engines'
// arenas. After Close (which drains every arena) it must be zero; the
// chaos soak treats anything else as a leak.
func (p *Pool) LiveBuffers() int {
	var n int
	for i := range p.engines {
		n += p.engines[i].Load().LiveBuffers()
	}
	return n
}

// BreakerStates reports each worker's circuit-breaker position.
func (p *Pool) BreakerStates() []string {
	states := make([]string, len(p.breakers))
	for i := range p.breakers {
		st, _ := unpack(p.breakers[i].Load())
		states[i] = st.String()
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
