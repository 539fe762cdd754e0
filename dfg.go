// Package dfg is a dynamic derived field generation framework for
// many-core architectures — a Go reproduction of the system described in
// "Efficient Dynamic Derived Field Generation on Many-Core Architectures
// Using Python" (Harrison, Navrátil, Moussalem, Jiang, Childs — SC 2012).
//
// Derived field generation creates new fields from the fields already in
// simulation data ("v_mag = sqrt(u*u + v*v + w*w)"). The framework has
// three parts, mirroring the paper's architecture:
//
//   - an expression parser (LALR(1), like the original's PLY parser)
//     that turns user expression text into a dataflow network
//     specification, pooling constants and eliminating common
//     sub-expressions;
//   - a dataflow network executed on an OpenCL-style device by one of
//     three execution strategies — roundtrip, staged, or fusion (a
//     dynamic kernel generator that fuses the whole network into a
//     single generated kernel); and
//   - this host interface, through which a host application hands in
//     expression text plus named input arrays and receives the derived
//     field, with per-run device profiling (transfer/kernel counts and
//     times) and the device-memory high-water mark.
//
// The device substrate is a simulated OpenCL runtime (see internal/ocl):
// kernels really execute data-parallel on the host, while transfers,
// kernel launches and memory capacity follow a calibrated model of the
// paper's Intel Xeon X5660 CPU and NVIDIA Tesla M2050 GPU devices.
//
// Concurrency: an Engine is single-goroutine (like the paper's
// one-instance-per-MPI-task model), but expression compilation is
// factored into a concurrency-safe shared layer (internal/compile) —
// compiled networks are immutable and may be served from one cache by
// any number of engines. internal/serve builds a pool of engines behind
// one shared cache for concurrent workloads.
//
// Quick start:
//
//	eng, _ := dfg.New(dfg.Config{Device: dfg.GPU, Strategy: "fusion"})
//	res, err := eng.Eval("v_mag = sqrt(u*u + v*v + w*w)",
//	    len(u), map[string][]float32{"u": u, "v": v, "w": w})
//	// res.Data holds the derived field; res.Profile the device events.
package dfg

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"dfg/internal/compile"
	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/obs"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/perfdb"
	"dfg/internal/strategy"
)

// Re-exported mesh types: the public API speaks the same rectilinear
// mesh language as the internals.
type (
	// Mesh is a 3-D rectilinear mesh with cell-centered fields.
	Mesh = mesh.Mesh
	// Dims is a mesh's cell extent.
	Dims = mesh.Dims
	// Profile aggregates a run's device events: transfer and kernel
	// counts (the paper's Table II), bytes, and modeled device times.
	Profile = ocl.Profile
	// Event is one profiled device operation.
	Event = ocl.Event
)

// NewUniformMesh builds a mesh with uniform spacing (see mesh.NewUniform).
func NewUniformMesh(d Dims, dx, dy, dz float32) (*Mesh, error) {
	return mesh.NewUniform(d, dx, dy, dz)
}

// NewRectilinearMesh builds a mesh from explicit, strictly increasing
// per-axis point coordinate arrays.
func NewRectilinearMesh(x, y, z []float32) (*Mesh, error) {
	return mesh.NewRectilinear(x, y, z)
}

// DeviceKind selects a target architecture on the simulated Edge node.
type DeviceKind int

const (
	// CPU targets the Intel Xeon X5660 OpenCL CPU device.
	CPU DeviceKind = iota
	// GPU targets an NVIDIA Tesla M2050 (3 GB global memory).
	GPU
)

// String names the device kind.
func (k DeviceKind) String() string {
	if k == GPU {
		return "GPU"
	}
	return "CPU"
}

// Config configures an Engine.
type Config struct {
	// Device picks the target architecture. Default CPU.
	Device DeviceKind
	// Strategy is one of "roundtrip", "staged", "fusion", "streaming",
	// "vm" or "tiered[@N]". Default "fusion" (the paper's fastest device
	// strategy). "vm" evaluates on the host bytecode VM with zero
	// device traffic; "tiered@N" routes each request by size — below N
	// elements to the VM, at or above to the device ("tiered" alone
	// means N = strategy.DefaultVMThreshold).
	Strategy string
	// MemScale divides the simulated device's memory capacity, for
	// running the paper's memory-constraint experiments at laptop
	// scale (grids scaled by s in each dimension pair with MemScale =
	// s^3). Default 1: the real 96 GB / 3 GB capacities.
	MemScale int64
	// Opt selects the optimisation level the engine compiles at:
	// "paper" (or empty — the default) for the paper's exact two-pass
	// front end, or "O2" for the full optimising pipeline, which
	// returns the same bits (any NaN for a NaN) but launches fewer
	// kernels. All paper-reproduction harnesses leave this empty.
	Opt string
}

// Engine is the host interface: it owns one device environment and one
// execution strategy, and evaluates expression programs against host
// arrays.
//
// What is and isn't safe to share: an Engine itself is NOT safe for
// concurrent use — its device environment (command queue, profile, peak-
// memory accounting) is per-run mutable state, so create one engine per
// goroutine, as the paper runs one framework instance per MPI task. The
// compile layer, by contrast, IS safe to share: the engine's definition
// database and network cache live in an internal/compile.Compiler whose
// methods are concurrency-safe, and the compiled networks it hands out
// are sealed (immutable). NewWith builds engines that front one shared
// compiler, so a hot expression compiles once for a whole pool of
// engines; internal/serve packages that pattern as a service.
type Engine struct {
	env   *ocl.Env
	strat strategy.Strategy
	// label is strat.String(), computed once per view (tiered's and
	// streaming's are built): the ladder label evaluations enter with.
	label string

	// comp owns the engine's named-expression database and its compiled-
	// network cache. Private by default (New); shared when the engine was
	// built with NewWith.
	comp *compile.Compiler

	// tracer and reg are the optional observability hooks (Instrument).
	// Both nil by default: the uninstrumented hot path takes no clock
	// readings and allocates nothing for observability.
	tracer *obs.Tracer
	reg    *obs.Registry
	// evalHist memoizes the per-fingerprint latency histogram series.
	// Engine methods are single-goroutine (see above), so a plain map
	// suffices; the histograms themselves are concurrency-safe and may
	// be shared across a pool through the shared registry.
	evalHist map[histKey]*obs.Histogram

	// prepCount tracks open Prepared handles on the device environment;
	// when the last one closes, the buffer arena drains (see
	// Prepared.Close). Derived views (WithOptLevel, WithStrategy) share
	// the arena, so they share the count.
	prepCount *int

	// rec, when non-nil, is the armed fault-recovery state
	// (SetRecovery): transient retries with backoff and the capacity
	// degradation ladder, wrapped around every plan execution.
	rec *recovery

	// perf, when non-nil, is the continuous-profiling sink
	// (SetPerfRecorder): every evaluation deposits one EvalRecord.
	// pendingWait stages the queue wait the next record consumes (engine
	// methods are single-goroutine, so a plain field suffices).
	perf        *perfdb.Recorder
	pendingWait time.Duration

	// lvl is the optimisation level every compile goes through
	// (Config.Opt, parsed). The zero value is the Paper level.
	lvl passes.Level
}

// NewDeviceFor builds the simulated device a Config selects — the same
// construction New performs, exposed so pools can build one device per
// worker engine.
func NewDeviceFor(cfg Config) (*ocl.Device, error) {
	if cfg.MemScale < 1 {
		cfg.MemScale = 1
	}
	var spec ocl.DeviceSpec
	switch cfg.Device {
	case CPU:
		spec = ocl.XeonX5660Spec(cfg.MemScale)
	case GPU:
		spec = ocl.TeslaM2050Spec(cfg.MemScale)
	default:
		return nil, fmt.Errorf("dfg: unknown device kind %d", cfg.Device)
	}
	return ocl.NewDevice(spec), nil
}

// New builds an engine on a fresh simulated device with a private
// compile cache.
func New(cfg Config) (*Engine, error) {
	dev, err := NewDeviceFor(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := NewWith(dev, cfg.Strategy, compile.NewCompiler())
	if err != nil {
		return nil, err
	}
	return eng.WithOptLevel(cfg.Opt)
}

// NewWith builds an engine on an existing device that fronts a shared
// compiler. All engines sharing the compiler see one definition database
// and one compiled-network cache; internal/serve uses this to give every
// pool worker its own device while compiling each hot expression exactly
// once.
func NewWith(dev *ocl.Device, strategyName string, comp *compile.Compiler) (*Engine, error) {
	if strategyName == "" {
		strategyName = "fusion"
	}
	strat, err := strategy.ForName(strategyName)
	if err != nil {
		return nil, err
	}
	if comp == nil {
		comp = compile.NewCompiler()
	}
	return &Engine{
		env:       ocl.NewEnv(dev),
		strat:     strat,
		label:     strat.String(),
		comp:      comp,
		prepCount: new(int),
	}, nil
}

// Instrument attaches observability hooks to the engine: a tracer
// (each Eval records a span tree covering parse -> fingerprint -> cache
// lookup -> build -> bind -> execute, with the run's device events
// attached as child spans) and a metrics registry (per-eval latency
// histograms keyed by expression fingerprint and strategy). Either may
// be nil: a nil tracer records no spans, a nil registry no metrics, and
// with both nil the hot path is exactly the uninstrumented one.
// Instrument must be called before the engine is used; like all Engine
// methods it is not safe to call concurrently with Eval.
func (e *Engine) Instrument(t *obs.Tracer, r *obs.Registry) {
	e.tracer = t
	e.reg = r
	if r != nil && e.evalHist == nil {
		e.evalHist = make(map[histKey]*obs.Histogram)
	}
}

// Device describes the engine's target device, e.g. "NVIDIA Tesla M2050".
func (e *Engine) Device() string { return e.env.Device().Name() }

// Strategy returns the engine's execution strategy name.
func (e *Engine) Strategy() string { return e.strat.Name() }

// WithOptLevel is View at the named optimisation level ("paper" or
// "O2"). The level is folded into cache keys, so the two levels' plans
// coexist in the shared compiler.
func (e *Engine) WithOptLevel(level string) (*Engine, error) {
	lvl, err := passes.ParseLevel(level)
	if err != nil {
		return nil, fmt.Errorf("dfg: %w", err)
	}
	return e.View(lvl, e.strat), nil
}

// WithStrategy is View under the named strategy (any name ForName
// accepts, including "vm" and "tiered@N"); an empty name returns the
// receiver. Strategy variants occupy distinct plan-cache slots, so
// plans for both coexist.
func (e *Engine) WithStrategy(name string) (*Engine, error) {
	if name == "" {
		return e, nil
	}
	strat, err := strategy.ForName(name)
	if err != nil {
		return nil, fmt.Errorf("dfg: %w", err)
	}
	return e.View(e.lvl, strat), nil
}

// View returns a derived engine that compiles at lvl and executes under
// strat but shares everything else with the receiver — device
// environment, compiler and observability hooks — or the receiver
// itself when both match. The shared environment makes the view
// single-goroutine with the receiver: use one of them at a time.
func (e *Engine) View(lvl passes.Level, strat strategy.Strategy) *Engine {
	if lvl == e.lvl && strat == e.strat {
		return e
	}
	d := *e
	d.lvl, d.strat, d.label = lvl, strat, strat.String()
	if d.reg != nil {
		// The latency series is labeled by strategy: a fresh memo records
		// the view's under its own name.
		d.evalHist = make(map[histKey]*obs.Histogram)
	}
	return &d
}

// Result is a derived field along with the run's device profile.
type Result struct {
	// Data is the derived field, Width float32 components per element.
	Data  []float32
	Width int
	// Profile aggregates the run's device events.
	Profile Profile
	// PeakDeviceBytes is the device global-memory high-water mark.
	PeakDeviceBytes int64
	// Events is the raw device event log in enqueue order. One-shot
	// evaluations (Engine.Eval, EvalOnMesh) and traced ones carry it; a
	// warm untraced evaluation of a Prepared or PreparedBatch leaves it
	// empty, and Profile still counts and times every event.
	Events []Event
	// Roots holds every root's output when the evaluated network was a
	// merged multi-root super-network, in root order; nil for ordinary
	// single-root evaluations. Batch demultiplexing consumes it — most
	// callers want a BatchResult's per-member Results instead.
	Roots []RootField
}

// RootField is one root's output array of a multi-root (batched)
// evaluation. (Field already names a timestep of velocity data.)
type RootField = strategy.Field

// Define registers a named expression in the engine's expression
// database, like the expression lists visualization tools maintain.
// Subsequent Eval calls may reference the name; it expands inline with
// its own local namespace. Definitions may reference other definitions
// (cycles are rejected at Eval time). Redefinition replaces the previous
// text and invalidates exactly the cached networks that reference the
// name (cache keys fingerprint an expression together with the
// definitions it uses); unrelated cache entries survive. If the engine
// shares its compiler (NewWith), the definition is visible to every
// engine on that compiler.
func (e *Engine) Define(name, text string) error {
	if err := e.comp.Define(name, text); err != nil {
		return fmt.Errorf("dfg: %w", err)
	}
	return nil
}

// Definitions lists the names in the engine's expression database.
func (e *Engine) Definitions() []string { return e.comp.Definitions() }

// Eval evaluates an expression program over n elements with the given
// named input arrays. The last statement's value is returned. If the
// engine is instrumented (Instrument), each call records a pipeline
// trace — compile (parse, fingerprint, cache, build), bind, execute,
// plus the run's device events on their own tracks — and a
// latency-histogram observation.
func (e *Engine) Eval(text string, n int, inputs map[string][]float32) (*Result, error) {
	sp := e.tracer.Start("eval")
	defer sp.Finish()
	return e.eval(nil, sp, binder{n: n, inputs: inputs}, job{text: text})
}

// EvalOnMesh evaluates an expression over cell-centered fields on a
// mesh, automatically binding the mesh-derived sources the gradient
// primitive needs: dims and the per-cell coordinate arrays x, y, z.
func (e *Engine) EvalOnMesh(text string, m *Mesh, fields map[string][]float32) (*Result, error) {
	sp := e.tracer.Start("eval")
	defer sp.Finish()
	return e.eval(nil, sp, binder{mesh: m, inputs: fields}, job{text: text})
}

// binder is what an evaluation binds: named arrays over n elements, or —
// when mesh is set — cell-centered fields on it plus the mesh-derived
// sources (dims, x, y, z). A value, and bound by reference
// (strategy.Bind), so the warm path allocates nothing for it.
type binder struct {
	n      int
	inputs map[string][]float32
	mesh   *Mesh
}

func (b binder) bind(ctx context.Context) (strategy.Bindings, error) {
	bind, err := strategy.Bind(b.n, b.inputs, b.mesh)
	bind.Ctx = ctx
	return bind, err
}

// job is what an evaluation runs. A one-shot Eval sets only text: the
// core compiles and plans it under the evaluation's span and runs it
// without an arena, so per-run allocate/free — and with it the paper's
// Table II event counts and Figure 6 memory profile — stays exact. A
// Prepared sets all of text, pr, plan, strat, label, fp and pool; a
// merged batch has no text and sets batch.
type job struct {
	text    string            // what the recovery ladder re-plans
	pr      *Prepared         // where a degraded run parks its landing rung
	plan    strategy.Plan     // nil: compile and plan text first
	strat   strategy.Strategy // plan's ladder rung
	label   string            // strat.String()
	fp      string
	pool    *ocl.Arena    // attached to the environment for the run
	batch   int           // > 0: merged members; runs outside the recovery ladder
	planned time.Duration // compile+plan time when eval planned the job (recorded only)
}

// eval is the one evaluation core: annotate the span, plan if the job
// has not, bind, run. ctx may be nil; once it is done the run is
// abandoned at the next kernel-launch boundary, and with recovery armed
// (SetRecovery) further retries and fallbacks stop too.
func (e *Engine) eval(ctx context.Context, sp *obs.Span, b binder, j job) (*Result, error) {
	if sp != nil { // guard: strconv.Itoa must not run on the no-op path
		n := b.n
		if b.mesh != nil {
			n = b.mesh.Cells()
		}
		sp.SetAttr("strategy", e.strat.Name()).SetAttr("n", strconv.Itoa(n))
		if j.batch > 0 {
			sp.SetAttr("batch", strconv.Itoa(j.batch))
		}
	}
	t0 := e.clock()
	if j.plan == nil {
		var err error
		j.plan, j.fp, err = e.comp.PlanTracedAt(j.text, e.lvl, e.strat, e.env.Device(), sp)
		if err != nil {
			return nil, err
		}
		j.strat, j.label = e.strat, e.label
		if e.perf != nil {
			j.planned = time.Since(t0)
		}
	}
	bs := sp.Child("bind")
	bind, err := b.bind(ctx)
	bs.Finish()
	if err != nil {
		return nil, err
	}
	return e.runPlan(j, bind, sp, t0)
}

// runPlan executes a job's plan, wrapped in the engine's recovery loop
// when one is armed (SetRecovery): transient faults retry the same plan
// with backoff, capacity faults re-plan the job's text down the
// degradation ladder. Merged batches run outside the ladder (see
// batch.go).
func (e *Engine) runPlan(j job, bind strategy.Bindings, sp *obs.Span, t0 time.Time) (*Result, error) {
	var res *Result
	var rt route
	var err error
	if e.rec == nil || j.batch > 0 {
		res, rt.resolved, err = e.runPlanOnce(j, bind, sp, t0)
	} else {
		res, rt, err = e.rec.run(e, j, bind, sp, t0)
	}
	if e.perf != nil {
		e.recordEval(j, rt, res, err, bind.N, sp, t0)
	}
	return res, err
}

// runPlanOnce executes a job's plan once, recording the execute span
// (with the simulated device events attached as fixed-time children on
// per-category tracks) and the per-(fingerprint, strategy, resolved)
// latency observation. j.label names the rung being attempted (the
// engine's strategy at entry, or the ladder rung on fallback attempts); the
// resolved execution path — the tiered plan's chosen tier, else the
// label itself — lands on the span and the histogram, and is returned.
func (e *Engine) runPlanOnce(j job, bind strategy.Bindings, sp *obs.Span, t0 time.Time) (*Result, string, error) {
	if j.pool != nil {
		e.env.SetPool(j.pool)
		defer e.env.SetPool(nil)
	}
	es := sp.Child("execute")
	// The per-event log feeds the trace's device tracks and one-shot
	// Eval's Result.Events; a warm untraced run reads only the profile.
	e.env.Queue().SetEventLog(es != nil || j.pool == nil)
	res, err := j.plan.Execute(e.env, bind)
	es.Finish()
	if err != nil {
		if es != nil {
			es.SetAttr("error", err.Error())
		}
		return nil, "", err
	}
	resolved := res.Resolved
	if resolved == "" {
		resolved = j.label
	}
	if sp != nil {
		sp.SetAttr("resolved", resolved)
	}
	attachDeviceEvents(es, res.Events)
	if e.reg != nil {
		e.evalHistogram(j.fp, resolved).Observe(time.Since(t0))
	}
	return &Result{
		Data:            res.Data,
		Width:           res.Width,
		Profile:         res.Profile,
		PeakDeviceBytes: res.PeakBytes,
		Events:          res.Events,
		Roots:           res.Roots,
	}, resolved, nil
}

// histKey identifies one latency series of an engine view: the full
// fingerprint and the resolved execution path.
type histKey struct{ fp, resolved string }

// evalHistogram resolves (memoized per engine) the latency series for a
// fingerprint under the engine's strategy and the resolved execution
// path. The strategy label stays the engine's configured strategy (so
// dashboards keyed on it are stable); resolved carries the tier that
// actually ran, un-hiding the tiered strategy's routing.
func (e *Engine) evalHistogram(fp, resolved string) *obs.Histogram {
	key := histKey{fp, resolved}
	if h, ok := e.evalHist[key]; ok {
		return h
	}
	h := e.reg.Histogram("dfg_eval_seconds",
		"End-to-end evaluation latency by expression fingerprint, strategy and resolved execution path.",
		obs.Labels{"fingerprint": compile.ShortKey(fp), "strategy": e.strat.Name(), "resolved": resolved})
	e.evalHist[key] = h
	return h
}

// attachDeviceEvents adds the run's device events to the execute span as
// fixed-interval children. Device events live on the simulated device
// timeline, not host wall time, so each is offset from the execute
// span's start and placed on its category's track ("host-to-device",
// "kernel", "device-to-host") — the multi-track layout metrics.
// WriteSpanTraces renders.
func attachDeviceEvents(es *obs.Span, events []ocl.Event) {
	if es == nil {
		return
	}
	base := es.Start
	for _, ev := range events {
		attrs := make([]obs.Attr, 0, 2)
		if ev.Bytes > 0 {
			attrs = append(attrs, obs.Attr{Key: "bytes", Value: strconv.FormatInt(ev.Bytes, 10)})
		}
		if ev.GlobalSize > 0 {
			attrs = append(attrs, obs.Attr{Key: "global_size", Value: strconv.Itoa(ev.GlobalSize)})
		}
		es.Event(ev.Name, deviceTrack(ev.Kind), base.Add(ev.Start), base.Add(ev.End), attrs...)
	}
}

// deviceTrack names the export track for a device event category.
func deviceTrack(k ocl.EventKind) string {
	switch k {
	case ocl.WriteEvent:
		return "host-to-device"
	case ocl.ReadEvent:
		return "device-to-host"
	default:
		return "kernel"
	}
}

// FusedSource returns the OpenCL C source the fusion strategy's dynamic
// kernel generator emits for an expression — an inspection hook, also
// exposed by cmd/dfg-fuse.
func (e *Engine) FusedSource(text string) (string, error) {
	net, _, err := e.comp.CompileTracedAt(text, e.lvl, nil)
	if err != nil {
		return "", err
	}
	return strategy.GeneratedSource(net, "expr")
}

// NetworkScript parses an expression and renders the dataflow
// network-definition API calls that realize it (the paper's optional
// user-inspectable script).
func NetworkScript(text string) (string, error) {
	net, err := expr.Compile(text)
	if err != nil {
		return "", err
	}
	return net.Script(), nil
}

// NetworkDot parses an expression and renders its dataflow network in
// Graphviz DOT form (the layout behind the paper's Figure 4).
func NetworkDot(text string) (string, error) {
	net, err := expr.Compile(text)
	if err != nil {
		return "", err
	}
	return net.Dot(), nil
}

// Strategies lists the built-in execution strategy names.
func Strategies() []string { return strategy.Names() }
