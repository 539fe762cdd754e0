package dfg

import (
	"context"
	"fmt"
	"strconv"

	"dfg/internal/compile"
	"dfg/internal/dataflow"
	"dfg/internal/obs"
	"dfg/internal/ocl"
	"dfg/internal/strategy"
)

// Prepared is one expression, or several, prepared for repeated
// evaluation: the compile and planning work (parse, fingerprint,
// topological order, kernel resolution, fused-kernel generation) is done
// once at Prepare time, and every Eval attaches the engine's buffer
// arena so device buffers recycle across calls and the mesh-derived
// sources stay device-resident. This is the in-situ pattern — one expression,
// many timesteps — made explicit in the API; one-shot Engine.Eval
// remains the exact paper semantics (per-run allocate/free, Table II
// event counts).
//
// Several texts sharing one binding are one handle too. Texts that
// deduplicate to one compiled expression take the one-text path
// unchanged. Distinct ones are merged into one network with
// cross-expression CSE (compile.Compiler's MergeTraced), planned once
// through the shared plan cache under the batch key, and executed in one
// run, so shared subtrees execute exactly once; Result.Members answers
// each text.
//
// A Prepared is bound to its engine and shares the engine's
// single-goroutine discipline: do not use one engine's prepared plans
// from multiple goroutines concurrently. The underlying plan itself is
// immutable and shared through the compiler's plan cache, so preparing
// the same expression on many engines costs one planning pass.
//
// Close releases the prepared handle; when an engine's last prepared
// handle closes, the engine drains its arena, returning the context's
// live-buffer count to the pre-Prepare level.
type Prepared struct {
	eng    *Engine
	plan   strategy.Plan
	key    compile.Key
	short  string // key.Short(), the label every eval records
	text   string // the first text
	closed bool

	// roots, on a handle of several texts, maps each text to its root's
	// position in the run's root order (all 0 when they deduplicated to
	// one expression); nil for one text. merged counts the distinct
	// texts a merge combined (0 on the one-text path) and shared the
	// nodes its CSE eliminated.
	roots  []int
	merged int
	shared int

	// fallback, when its plan is non-nil, is the degraded plan the
	// engine's recovery ladder landed on during an earlier evaluation,
	// with its rung and that rung's label (e.g. "streaming@16"). Warm
	// evaluations start from it instead of re-failing the primary plan.
	// Capacity degradations are engine-recovery state cleared by
	// nothing short of a new Prepare; a device-lost degradation
	// (fallbackLost) clears itself once the device is healed, since the
	// primary plan was never the problem.
	fallback     job
	fallbackLost bool

	// n and nText are the element count a trace's "n" attribute last
	// rendered, formatted once while it stays the same.
	n     int
	nText string
}

// nAttr renders n for a trace's "n" attribute, once per handle while n
// stays the same (every time for a nil handle: one-shot Eval).
func (p *Prepared) nAttr(n int) string {
	if p == nil {
		return strconv.Itoa(n)
	}
	if p.nText == "" || p.n != n {
		p.n, p.nText = n, strconv.Itoa(n)
	}
	return p.nText
}

// refresh drops a device-lost fallback once the device has healed:
// the primary plan only failed because the device was gone, so a
// healthy device restores it. Capacity fallbacks stay parked.
func (p *Prepared) refresh() {
	if p.fallbackLost && !p.eng.DeviceLost() {
		p.fallback, p.fallbackLost = job{}, false
	}
}

// active returns the job a warm evaluation should start from: the
// parked fallback and its rung if a previous run degraded, else the
// primary plan on the engine's strategy.
func (p *Prepared) active() job {
	p.refresh()
	if p.fallback.plan != nil {
		return p.fallback
	}
	return job{plan: p.plan, strat: p.eng.strat, label: p.eng.label}
}

// Degraded names the degradation-ladder rung this prepared expression
// last landed on, or "" while the primary plan is still in use. A
// device-lost degradation reports "" again once Engine.Heal has
// restored the device.
func (p *Prepared) Degraded() string {
	p.refresh()
	return p.fallback.label
}

// Prepare compiles and plans one expression, or several sharing one
// binding, for repeated evaluation. Any text failing to compile fails
// the whole handle — callers wanting per-text error isolation prepare
// texts alone first (the shared cache makes the re-compile here free).
func (e *Engine) Prepare(texts ...string) (*Prepared, error) {
	return e.PrepareContext(context.Background(), texts...)
}

// PrepareContext is Prepare recording its compile, merge and plan spans
// under the span ctx carries (the serving layer's request trace), or
// under a "prepare" root of the engine's own. Compilation observes no
// deadline.
func (e *Engine) PrepareContext(ctx context.Context, texts ...string) (*Prepared, error) {
	ctx, sp, root := e.trace(ctx, "prepare")
	defer root.Finish()
	if len(texts) == 0 {
		return nil, fmt.Errorf("dfg: Prepare needs at least one expression")
	}
	p := &Prepared{eng: e, text: texts[0]}
	net, err := p.build(ctx, texts)
	if err != nil {
		return nil, err
	}
	if p.plan, err = e.comp.PlanNetTraced(net, p.key, e.strat, e.env.Device(), sp); err != nil {
		return nil, err
	}
	p.short = p.key.Short()
	*e.prepCount++
	return p, nil
}

// build compiles each text once, under the span ctx carries, and
// returns the network the handle plans under p.key: the first text's,
// unless the texts hold at least two distinct expressions, which merge
// under the batch key.
func (p *Prepared) build(ctx context.Context, texts []string) (*dataflow.Network, error) {
	e := p.eng
	parent, _ := obs.FromContext(ctx)
	if len(texts) == 1 {
		net, key, err := e.comp.CompileTracedAt(texts[0], e.lvl, parent)
		p.key = key
		return net, err
	}
	members := make([]compile.Member, len(texts))
	for i, text := range texts {
		net, key, err := e.comp.CompileTracedAt(text, e.lvl, parent)
		if err != nil {
			return nil, fmt.Errorf("dfg: batch member %d: %w", i, err)
		}
		members[i] = compile.Member{Key: key, Net: net}
	}
	merged, key, roots, err := e.comp.MergeTraced(members, parent)
	if err != nil {
		return nil, err
	}
	p.key, p.roots = key, roots
	if n := len(merged.Root); n > 1 {
		p.merged, p.shared = n, merged.Shared
	}
	return merged.Net, nil
}

// Fingerprint returns the prepared expression's cache fingerprint (the
// compile-cache key at Prepare time; the batch key when several texts
// merged), rendered.
func (p *Prepared) Fingerprint() string { return p.key.String() }

// Text returns the prepared expression text (the first, of several).
func (p *Prepared) Text() string { return p.text }

// Shared counts the network nodes cross-expression CSE eliminated when
// the handle's texts merged: work that would have run once per
// duplicated subtree had the texts evaluated alone.
func (p *Prepared) Shared() int { return p.shared }

// Eval evaluates the prepared expression over n elements with the given
// named input arrays, drawing device buffers from the engine's arena.
func (p *Prepared) Eval(n int, inputs map[string][]float32) (*Result, error) {
	return p.EvalContext(context.Background(), n, inputs)
}

// EvalContext is Eval observing ctx: once it is done the run stops at
// the next kernel-launch boundary, and recovery stops retrying and
// falling back. Spans record under the one ctx carries (serve's request
// trace, whose queue wait lands on the perf record), if any.
func (p *Prepared) EvalContext(ctx context.Context, n int, inputs map[string][]float32) (*Result, error) {
	return p.eval(ctx, binder{n: n, inputs: inputs})
}

// EvalMesh evaluates the prepared expression over cell-centered fields
// on a mesh, binding the mesh-derived sources (dims, x, y, z) the
// gradient primitive needs. The derived arrays are memoized per mesh,
// so repeated calls over one mesh rebind the same backing arrays — and
// the arena keeps them device-resident, skipping their re-upload.
func (p *Prepared) EvalMesh(m *Mesh, fields map[string][]float32) (*Result, error) {
	return p.eval(context.Background(), binder{mesh: m, inputs: fields})
}

// eval runs the handle's active plan through the engine's core with the
// arena attached.
func (p *Prepared) eval(ctx context.Context, b binder) (*Result, error) {
	if p.closed {
		return nil, fmt.Errorf("dfg: prepared expression is closed")
	}
	j := p.active()
	j.pr, j.key, j.short, j.roots, j.batch, j.pool = p, p.key, p.short, p.roots, p.merged, p.eng.env.Context().Pool()
	return p.eng.eval(ctx, b, j)
}

// Close releases the prepared handle. Closing the engine's last open
// handle drains the arena: every pooled and resident device buffer is
// freed, restoring the context's live-buffer count and used-byte
// accounting to the pre-Prepare level.
//
// Close is idempotent: a second (or hundredth) Close is a no-op — the
// handle's prepCount reference is surrendered exactly once, so
// double-Close can never drain an arena other handles still rely on.
// The arena's Drain is itself idempotent, so Close racing nothing can
// double-free either way.
func (p *Prepared) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.eng.releaseHandle()
}

// releaseHandle surrenders one open-handle reference; the last one out
// drains the arena.
func (e *Engine) releaseHandle() {
	if *e.prepCount > 0 {
		*e.prepCount--
	}
	if *e.prepCount == 0 {
		e.env.Context().Pool().Drain()
	}
}

// Fingerprint returns the compile-cache key Eval would use for text
// under the engine's current definitions and optimisation level.
func (e *Engine) Fingerprint(text string) string { return e.comp.FingerprintAt(text, e.lvl).String() }

// ArenaStats snapshots the engine's buffer-arena counters: buffers
// reused vs freshly allocated, resident-source uploads vs skips, and
// pooled/resident byte totals.
func (e *Engine) ArenaStats() ocl.ArenaStats {
	return e.env.Context().Pool().Stats()
}

// CacheStats snapshots the engine's (possibly shared) compile- and
// plan-cache counters.
func (e *Engine) CacheStats() compile.Stats { return e.comp.Stats() }
