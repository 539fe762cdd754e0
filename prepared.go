package dfg

import (
	"context"
	"fmt"

	"dfg/internal/compile"
	"dfg/internal/obs"
	"dfg/internal/ocl"
	"dfg/internal/strategy"
)

// Prepared is an expression prepared for repeated evaluation: the
// compile and planning work (parse, fingerprint, topological order,
// kernel resolution, fused-kernel generation) is done once at Prepare
// time, and every Eval attaches the engine's buffer arena so device
// buffers recycle across calls and unchanged sources stay
// device-resident. This is the in-situ pattern — one expression, many
// timesteps — made explicit in the API; one-shot Engine.Eval remains
// the exact paper semantics (per-run allocate/free, Table II event
// counts).
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
	fp     string
	text   string
	closed bool

	// fallback, when non-nil, is the degraded plan the engine's
	// recovery ladder landed on during an earlier evaluation, with
	// fallbackLabel naming its rung (e.g. "streaming@16"). Warm
	// evaluations start from it instead of re-failing the primary plan.
	// Capacity degradations are engine-recovery state cleared by
	// nothing short of a new Prepare; a device-lost degradation
	// (fallbackLost) clears itself once the device is healed, since the
	// primary plan was never the problem.
	fallback      strategy.Plan
	fallbackLabel string
	fallbackLost  bool
}

// refresh drops a device-lost fallback once the device has healed:
// the primary plan only failed because the device was gone, so a
// healthy device restores it. Capacity fallbacks stay parked.
func (p *Prepared) refresh() {
	if p.fallbackLost && !p.eng.DeviceLost() {
		p.fallback, p.fallbackLabel, p.fallbackLost = nil, "", false
	}
}

// active returns the plan a warm evaluation should start from and its
// ladder label: the parked fallback if a previous run degraded, else
// the primary plan.
func (p *Prepared) active() (strategy.Plan, string) {
	p.refresh()
	if p.fallback != nil {
		return p.fallback, p.fallbackLabel
	}
	return p.plan, p.eng.rung
}

// Degraded names the degradation-ladder rung this prepared expression
// last landed on, or "" while the primary plan is still in use. A
// device-lost degradation reports "" again once Engine.Heal has
// restored the device.
func (p *Prepared) Degraded() string {
	p.refresh()
	return p.fallbackLabel
}

// Prepare compiles and plans an expression for repeated evaluation.
func (e *Engine) Prepare(text string) (*Prepared, error) {
	sp := e.tracer.Start("prepare")
	defer sp.Finish()
	return e.PrepareTraced(sp, text)
}

// PrepareTraced is Prepare recording its compile and plan spans under
// the caller-owned parent span.
func (e *Engine) PrepareTraced(parent *obs.Span, text string) (*Prepared, error) {
	plan, fp, err := e.comp.PlanTracedAt(text, e.lvl, e.strat, e.env.Device(), parent)
	if err != nil {
		return nil, err
	}
	*e.prepCount++
	return &Prepared{eng: e, plan: plan, fp: fp, text: text}, nil
}

// Fingerprint returns the prepared expression's cache fingerprint (the
// compile-cache key at Prepare time).
func (p *Prepared) Fingerprint() string { return p.fp }

// Text returns the prepared expression text.
func (p *Prepared) Text() string { return p.text }

// Eval evaluates the prepared expression over n elements with the given
// named input arrays, drawing device buffers from the engine's arena.
func (p *Prepared) Eval(n int, inputs map[string][]float32) (*Result, error) {
	sp := p.eng.tracer.Start("eval")
	defer sp.Finish()
	return p.eval(nil, sp, binder{n: n, inputs: inputs})
}

// EvalTracedCtx is Eval recording its bind and execute spans as
// children of the caller-owned parent span and observing a context: the
// run stops at the next kernel-launch boundary once ctx is done, and a
// done context also stops recovery retries and fallbacks. The serving
// layer threads each request's span and deadline through here.
func (p *Prepared) EvalTracedCtx(ctx context.Context, parent *obs.Span, n int, inputs map[string][]float32) (*Result, error) {
	return p.eval(ctx, parent, binder{n: n, inputs: inputs})
}

// EvalMesh evaluates the prepared expression over cell-centered fields
// on a mesh, binding the mesh-derived sources (dims, x, y, z) the
// gradient primitive needs. The derived arrays are memoized per mesh,
// so repeated calls over one mesh rebind the same backing arrays — and
// the arena keeps them device-resident, skipping their re-upload.
func (p *Prepared) EvalMesh(m *Mesh, fields map[string][]float32) (*Result, error) {
	sp := p.eng.tracer.Start("eval")
	defer sp.Finish()
	return p.eval(nil, sp, binder{mesh: m, inputs: fields})
}

// eval runs the handle's active plan through the engine's core with the
// arena attached.
func (p *Prepared) eval(ctx context.Context, sp *obs.Span, b binder) (*Result, error) {
	if p.closed {
		return nil, fmt.Errorf("dfg: prepared expression is closed")
	}
	e := p.eng
	plan, label := p.active()
	return e.eval(ctx, sp, b, job{text: p.text, pr: p, plan: plan, label: label, fp: p.fp, pool: e.env.Context().Pool()})
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
func (e *Engine) Fingerprint(text string) string { return e.comp.FingerprintAt(text, e.lvl) }

// ArenaStats snapshots the engine's buffer-arena counters: buffers
// reused vs freshly allocated, resident-source uploads vs skips, and
// pooled/resident byte totals.
func (e *Engine) ArenaStats() ocl.ArenaStats {
	return e.env.Context().Pool().Stats()
}

// CacheStats snapshots the engine's (possibly shared) compile- and
// plan-cache counters.
func (e *Engine) CacheStats() compile.Stats { return e.comp.Stats() }
