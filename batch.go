package dfg

import (
	"context"
	"fmt"

	"dfg/internal/obs"
	"dfg/internal/passes"
	"dfg/internal/strategy"
)

// This file is the engine's batch front: several expressions sharing one
// mesh evaluate as a single merged super-network — compiled members are
// merged with cross-expression CSE (internal/passes.MergeNetworks),
// planned once through the shared plan cache under the batch fingerprint,
// executed in one run, and the per-root outputs demultiplexed back to one
// Result per member. Shared subtrees across members execute exactly once.
//
// A batch that deduplicates to a single distinct expression takes the
// ordinary solo path (tiered VM routing included), so batching never
// regresses batch-of-one latency. Batch executions run OUTSIDE the
// engine's recovery ladder: the ladder re-plans from expression text,
// which a merged super-network does not have. Callers degrade a failed
// batch by splitting it back to solo evaluations, which re-enter the
// ladder individually — internal/serve does exactly that.

// BatchResult is the outcome of evaluating a batch of expressions as one
// merged super-network.
type BatchResult struct {
	// Results holds one result per input expression, in input order.
	// Members that deduplicated to the same fingerprint share one root
	// and therefore the same backing output array. Each result's
	// Profile, Events and PeakDeviceBytes describe the whole batch run —
	// the batch executed once, so per-member attribution of device
	// traffic does not exist.
	Results []*Result
	// Fingerprint is the batch fingerprint: a digest over the sorted,
	// de-duplicated member fingerprints.
	Fingerprint string
	// Shared counts the network nodes cross-expression CSE eliminated
	// when merging — work that would have run once per duplicated
	// subtree had the members evaluated individually.
	Shared int
	// Members is the number of distinct member expressions merged
	// (after fingerprint deduplication).
	Members int
}

// PreparedBatch is a batch of expressions prepared for repeated merged
// evaluation, the batch analogue of Prepared: member compilation, the
// merge, and planning happen once at PrepareBatch time; every Eval runs
// the merged plan with the engine's buffer arena attached and
// demultiplexes the roots. It shares the engine's single-goroutine
// discipline and counts as one Prepared handle for arena draining.
type PreparedBatch struct {
	eng *Engine
	n   int // input texts, one Result each
	bfp string

	// solo is the single-distinct-member fast path: the batch is an
	// ordinary prepared expression, evaluated solo (plan, recovery
	// ladder and tiered routing all intact). nil for real merges.
	solo *Prepared

	plan    strategy.Plan
	rootIdx []int // per input text -> index into the run's root outputs
	shared  int
	members int
	closed  bool
}

// PrepareBatch compiles, merges and plans a batch of expressions for
// repeated evaluation. Any member failing to compile fails the whole
// batch — callers wanting per-member error isolation compile members
// individually first (the shared cache makes the re-compile here free)
// and batch only the survivors.
func (e *Engine) PrepareBatch(texts []string) (*PreparedBatch, error) {
	sp := e.tracer.Start("prepare-batch")
	defer sp.Finish()
	return e.PrepareBatchTraced(sp, texts)
}

// PrepareBatchTraced is PrepareBatch recording its member-compile,
// merge and plan spans under the caller-owned parent span.
func (e *Engine) PrepareBatchTraced(parent *obs.Span, texts []string) (*PreparedBatch, error) {
	if len(texts) == 0 {
		return nil, fmt.Errorf("dfg: batch needs at least one expression")
	}
	// One text has nothing to deduplicate or merge: it skips the member
	// compiles and takes the solo fast path below — Prepare's one compile
	// and plan, under Prepare's own errors.
	var members []passes.MergeMember
	fps := make([]string, len(texts)) // per input text, in input order
	if len(texts) > 1 {
		seen := make(map[string]bool, len(texts))
		for i, text := range texts {
			net, fp, err := e.comp.CompileTracedAt(text, e.lvl, parent)
			if err != nil {
				return nil, fmt.Errorf("dfg: batch member %d: %w", i, err)
			}
			fps[i] = fp
			if !seen[fp] {
				seen[fp] = true
				members = append(members, passes.MergeMember{Fp: fp, Net: net})
			}
		}
	}
	if len(members) < 2 {
		// Batch of one (possibly N requests for one expression): the
		// solo fast path, byte-identical to an ordinary Prepare.
		solo, err := e.PrepareTraced(parent, texts[0])
		if err != nil {
			return nil, err
		}
		return &PreparedBatch{eng: e, n: len(texts), bfp: solo.fp, solo: solo, members: 1}, nil
	}
	merged, bfp, err := e.comp.MergeTraced(members, e.lvl, parent)
	if err != nil {
		return nil, err
	}
	plan, err := e.comp.PlanNetTraced(merged.Net, bfp, e.strat, e.env.Device(), parent)
	if err != nil {
		return nil, err
	}
	// Map each input text to its root's position in the execution's
	// root order. Distinct fingerprints can still CSE to one root (e.g.
	// commuted operands at O2), so the index goes through the merged
	// network's de-duplicated root list.
	idxOf := make(map[string]int, len(merged.Net.Roots()))
	for i, id := range merged.Net.Roots() {
		idxOf[id] = i
	}
	rootIdx := make([]int, len(texts))
	for i, fp := range fps {
		id, ok := merged.Root(fp)
		if !ok {
			return nil, fmt.Errorf("dfg: batch member %d: root lost in merge", i)
		}
		rootIdx[i] = idxOf[id]
	}
	*e.prepCount++
	return &PreparedBatch{
		eng: e, n: len(texts), bfp: bfp,
		plan: plan, rootIdx: rootIdx, shared: merged.Shared, members: len(members),
	}, nil
}

// Fingerprint returns the batch fingerprint (the member fingerprint for
// a batch that deduplicated to one expression).
func (pb *PreparedBatch) Fingerprint() string { return pb.bfp }

// Shared counts the network nodes cross-expression CSE eliminated at
// merge time (0 for the solo fast path).
func (pb *PreparedBatch) Shared() int { return pb.shared }

// Members is the number of distinct member expressions merged.
func (pb *PreparedBatch) Members() int { return pb.members }

// Solo reports whether the batch took the single-expression fast path.
func (pb *PreparedBatch) Solo() bool { return pb.solo != nil }

// Eval evaluates the batch over n elements with the given named input
// arrays (all members share the binding — that is what makes them a
// batch), drawing device buffers from the engine's arena.
func (pb *PreparedBatch) Eval(n int, inputs map[string][]float32) (*BatchResult, error) {
	sp := pb.eng.tracer.Start("eval-batch")
	defer sp.Finish()
	return pb.eval(nil, sp, binder{n: n, inputs: inputs})
}

// EvalTracedCtx is Eval recording its bind and execute spans under the
// caller-owned parent span and observing a context (the run stops at
// the next kernel-launch boundary once ctx is done).
func (pb *PreparedBatch) EvalTracedCtx(ctx context.Context, parent *obs.Span, n int, inputs map[string][]float32) (*BatchResult, error) {
	return pb.eval(ctx, parent, binder{n: n, inputs: inputs})
}

// EvalMesh is Eval over cell-centered fields on a mesh, binding the
// mesh-derived sources (dims, x, y, z) stencil members need.
func (pb *PreparedBatch) EvalMesh(m *Mesh, fields map[string][]float32) (*BatchResult, error) {
	sp := pb.eng.tracer.Start("eval-batch")
	defer sp.Finish()
	return pb.eval(nil, sp, binder{mesh: m, inputs: fields})
}

// eval runs the merged plan through the engine's core and demultiplexes
// its roots; a solo batch runs its one Prepared and fans the result out.
func (pb *PreparedBatch) eval(ctx context.Context, sp *obs.Span, b binder) (*BatchResult, error) {
	if pb.closed {
		return nil, fmt.Errorf("dfg: prepared batch is closed")
	}
	if pb.solo != nil {
		res, err := pb.solo.eval(ctx, sp, b)
		if err != nil {
			return nil, err
		}
		out := &BatchResult{Results: make([]*Result, pb.n), Fingerprint: pb.bfp, Members: 1}
		for i := range out.Results {
			out.Results[i] = res
		}
		return out, nil
	}
	e := pb.eng
	res, err := e.eval(ctx, sp, b, job{plan: pb.plan, strat: e.strat, label: e.label,
		fp: pb.bfp, pool: e.env.Context().Pool(), batch: pb.members})
	if err != nil {
		return nil, err
	}
	return pb.demux(res), nil
}

// demux fans the merged run's roots back out to one Result per input
// text. A single-root run (every member CSE'd to one node) carries its
// output in Data; multi-root runs carry theirs in Roots.
func (pb *PreparedBatch) demux(res *Result) *BatchResult {
	roots := res.Roots
	if roots == nil {
		roots = []RootField{{Data: res.Data, Width: res.Width}}
	}
	out := &BatchResult{
		Results:     make([]*Result, pb.n),
		Fingerprint: pb.bfp,
		Shared:      pb.shared,
		Members:     pb.members,
	}
	for i, ri := range pb.rootIdx {
		f := roots[ri]
		out.Results[i] = &Result{
			Data:            f.Data,
			Width:           f.Width,
			Profile:         res.Profile,
			PeakDeviceBytes: res.PeakDeviceBytes,
			Events:          res.Events,
		}
	}
	return out
}

// Close releases the prepared batch (idempotent); like Prepared.Close,
// closing the engine's last open handle drains the buffer arena.
func (pb *PreparedBatch) Close() {
	if pb.closed {
		return
	}
	pb.closed = true
	if pb.solo != nil {
		pb.solo.Close()
		return
	}
	pb.eng.releaseHandle()
}

// EvalBatch evaluates a batch of expressions over n elements in one
// merged run — PrepareBatch followed by a single Eval. Like prepared
// evaluation (and unlike one-shot Eval) the run is arena-backed; the
// compile, merge and plan caches make repeated EvalBatch calls for a
// recurring batch shape cheap, but callers evaluating the same batch
// every timestep should hold a PrepareBatch handle instead.
func (e *Engine) EvalBatch(texts []string, n int, inputs map[string][]float32) (*BatchResult, error) {
	sp := e.tracer.Start("eval-batch")
	defer sp.Finish()
	pb, err := e.PrepareBatchTraced(sp, texts)
	if err != nil {
		return nil, err
	}
	defer pb.Close()
	return pb.eval(nil, sp, binder{n: n, inputs: inputs})
}
