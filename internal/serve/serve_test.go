package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"dfg"
	"dfg/internal/obs"
	"dfg/internal/strategy"
)

// testInputs returns u/v/w arrays of n elements with deterministic
// contents (u[i] = i+1, so every element is nonzero).
func testInputs(n int) map[string][]float32 {
	u := make([]float32, n)
	v := make([]float32, n)
	w := make([]float32, n)
	for i := 0; i < n; i++ {
		u[i] = float32(i + 1)
		v[i] = float32(i%7) - 3
		w[i] = 0.5 * float32(i%5)
	}
	return map[string][]float32{"u": u, "v": v, "w": w}
}

func newTestPool(t testing.TB, cfg Config) *Pool {
	t.Helper()
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPoolEvalBasic(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2})
	const n = 64
	res, err := p.Submit(context.Background(), Request{
		Expr: "r = sqrt(u*u + v*v + w*w)", N: n, Inputs: testInputs(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != n || res.Width != 1 {
		t.Fatalf("result shape %d x %d", len(res.Data), res.Width)
	}
	in := testInputs(n)
	for i := 0; i < n; i++ {
		want := math.Sqrt(float64(in["u"][i]*in["u"][i] + in["v"][i]*in["v"][i] + in["w"][i]*in["w"][i]))
		if math.Abs(float64(res.Data[i])-want) > 1e-5 {
			t.Fatalf("r[%d] = %v, want %v", i, res.Data[i], want)
		}
	}
}

// TestPoolCompilesHotExpressionOnce is the shared-cache acceptance test:
// a repeated expression submitted from many goroutines across ≥8 workers
// compiles exactly once (the compile-count counter, asserted).
func TestPoolCompilesHotExpressionOnce(t *testing.T) {
	p := newTestPool(t, Config{Workers: 8})
	const n, clients, perClient = 256, 16, 8
	in := testInputs(n)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perClient; i++ {
				res, err := p.Submit(context.Background(), Request{
					Expr: "r = sqrt(u*u + v*v + w*w)", N: n, Inputs: in,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Data) != n || math.IsNaN(float64(res.Data[0])) {
					t.Errorf("bad result: len %d", len(res.Data))
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	st := p.Stats()
	if st.Compiles != 1 {
		t.Fatalf("hot expression compiled %d times across %d workers, want exactly 1", st.Compiles, st.Workers)
	}
	if st.Served != clients*perClient {
		t.Fatalf("served = %d, want %d", st.Served, clients*perClient)
	}
	if st.Profile.Kernels == 0 || st.Profile.Writes == 0 {
		t.Fatalf("aggregate profile empty: %+v", st.Profile)
	}
	// Fusion runs one kernel per evaluation: the aggregate must show one
	// kernel dispatch per served request.
	if st.Profile.Kernels != int(st.Served) {
		t.Fatalf("aggregate kernels = %d, want %d (one fused kernel per run)", st.Profile.Kernels, st.Served)
	}
}

// evalTogether submits exprs over one shared binding back to back — on a
// batching pool they land in one forming window — and returns their
// results in order.
func evalTogether(t *testing.T, p *Pool, n int, in map[string][]float32, exprs ...string) []*dfg.Result {
	t.Helper()
	chans := make([]<-chan Response, len(exprs))
	for i, expr := range exprs {
		chans[i] = p.EvalAsync(context.Background(), Request{Expr: expr, N: n, Inputs: in})
	}
	out := make([]*dfg.Result, len(exprs))
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("%s: %v", exprs[i], r.Err)
		}
		out[i] = r.Result
	}
	return out
}

// TestPoolStressDefineEval is the satellite concurrency stress test: M
// goroutines × K expressions, mixing Define redefinitions with Eval of
// expressions referencing the redefined name, under -race. Every result
// must be wholly consistent with ONE definition version — a torn cache
// read (half old coefficient, half new) fails element-wise — and once
// the definer has stopped, the next responses must carry its last body.
func TestPoolStressDefineEval(t *testing.T) {
	stressDefineEval(t, Config{Workers: 8, QueueDepth: 64})
}

// TestPoolBatchStressDefineEval is the same stress with the batch former
// on: the evaluators share one binding, so their requests merge.
func TestPoolBatchStressDefineEval(t *testing.T) {
	p := stressDefineEval(t, Config{Workers: 8, QueueDepth: 64, BatchWindow: 200 * time.Microsecond, BatchMax: 4})
	if p.Stats().Batches == 0 {
		t.Fatal("no batch formed: the batching run rode solo")
	}
}

func stressDefineEval(t *testing.T, cfg Config) *Pool {
	p := newTestPool(t, cfg)
	if err := p.Define("d", "u * 2"); err != nil {
		t.Fatal(err)
	}

	const n = 128
	const clients = 10
	const perClient = 30
	const redefines = 40
	const distinct = 5 // K distinct expressions, all referencing d
	in := testInputs(n)
	u := in["u"]
	coeffs := []float32{2, 10} // the two definition versions

	// check requires data to be d + k under exactly one version of d and
	// returns that version's coefficient.
	check := func(k int, data []float32) float32 {
		got := (data[0] - float32(k)) / u[0]
		var coeff float32
		for _, cand := range coeffs {
			if got == cand {
				coeff = cand
			}
		}
		if coeff == 0 {
			t.Errorf("expr k=%d: coefficient %v is neither version", k, got)
			return 0
		}
		for j := 0; j < n; j++ {
			if want := coeff*u[j] + float32(k); data[j] != want {
				t.Errorf("torn result: expr k=%d element %d = %v, want %v (coeff %v)", k, j, data[j], want, coeff)
				return 0
			}
		}
		return coeff
	}

	var wg sync.WaitGroup
	start := make(chan struct{})

	// Definer: flips d between u*2 and u*10, ending on u*10.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < redefines; i++ {
			body := "u * 2"
			if i%2 == 1 {
				body = "u * 10"
			}
			if err := p.Define("d", body); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perClient; i++ {
				k := (c + i) % distinct
				res, err := p.Submit(context.Background(), Request{
					Expr: fmt.Sprintf("r = d + %d", k), N: n, Inputs: in,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if check(k, res.Data) == 0 {
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	// Quiesced: every worker holds handles prepared under some earlier
	// body of d; none may answer from them.
	var exprs []string
	for k := 0; k < distinct; k++ {
		exprs = append(exprs, fmt.Sprintf("r = d + %d", k))
	}
	for k, res := range evalTogether(t, p, n, in, exprs...) {
		if coeff := check(k, res.Data); coeff != 10 {
			t.Fatalf("after the last Define(d, u * 10): expr k=%d evaluated with coefficient %v", k, coeff)
		}
	}

	st := p.Stats()
	if want := int64(clients*perClient + distinct); st.Served != want {
		t.Fatalf("served = %d, want %d", st.Served, want)
	}
	// 5 distinct expressions × at most 2 live definition versions, plus
	// possible recompiles as the definition flips back and forth: the
	// compile count must stay far below the request count (the cache is
	// doing its job) and at least 5 (each expression compiled).
	if st.Compiles < distinct {
		t.Fatalf("compiles = %d, want >= %d distinct", st.Compiles, distinct)
	}
	if st.Compiles >= int64(clients*perClient) {
		t.Fatalf("compiles = %d for %d requests: cache not shared", st.Compiles, clients*perClient)
	}
	return p
}

// dependentExpr is an expression over the definition "scale" and its
// value given scale's and v's at one element.
type dependentExpr struct {
	expr string
	want func(scale, v float32) float32
}

var redefDependents = []dependentExpr{
	{"r = scale + 1", func(scale, v float32) float32 { return scale + 1 }},
	{"r = scale + v", func(scale, v float32) float32 { return scale + v }},
}

// TestPoolRedefinitionInvalidatesExactly: redefining a name changes what
// a dependent expression returns from the next request on, and
// recompiles only it — the workers' handle flush re-prepares the
// unrelated expression from the shared caches.
func TestPoolRedefinitionInvalidatesExactly(t *testing.T) {
	redefinitionInvalidatesExactly(t, Config{Workers: 2}, redefDependents[:1])
}

// TestPoolBatchRedefinitionInvalidatesExactly is the merged row: two
// dependent expressions arrive together and fill a batch of two, so one
// merged run answers each round — from a handle looked up by member
// texts, which must not outlive the definition it was prepared under.
func TestPoolBatchRedefinitionInvalidatesExactly(t *testing.T) {
	redefinitionInvalidatesExactly(t, Config{Workers: 1, BatchWindow: 20 * time.Millisecond, BatchMax: 2}, redefDependents)
}

func redefinitionInvalidatesExactly(t *testing.T, cfg Config, dependents []dependentExpr) {
	p := newTestPool(t, cfg)
	const n, at = 32, 3
	in := testInputs(n)
	var exprs []string
	for _, d := range dependents {
		exprs = append(exprs, d.expr)
	}
	// round evaluates the dependents together, then an expression that
	// does not use the definition, and checks the dependents' values
	// under scale = u * coeff and the pool's cumulative compile count.
	round := func(coeff float32, compiles int64) {
		t.Helper()
		batches := p.Stats().Batches
		got := evalTogether(t, p, n, in, exprs...)
		if len(exprs) > 1 && p.Stats().Batches != batches+1 {
			t.Fatalf("batches = %d, want %d: the dependents did not merge", p.Stats().Batches, batches+1)
		}
		for i, d := range dependents {
			if want := d.want(in["u"][at]*coeff, in["v"][at]); got[i].Data[at] != want {
				t.Fatalf("scale = u * %v: %q element %d = %v, want %v", coeff, d.expr, at, got[i].Data[at], want)
			}
		}
		evalTogether(t, p, n, in, "r = u + v")
		if got := p.Stats().Compiles; got != compiles {
			t.Fatalf("scale = u * %v: compiles = %d, want %d (only dependent expressions recompile)", coeff, got, compiles)
		}
	}
	if err := p.Define("scale", "u * 2"); err != nil {
		t.Fatal(err)
	}
	round(2, int64(len(exprs))+1)
	if err := p.Define("scale", "u * 10"); err != nil {
		t.Fatal(err)
	}
	round(10, 2*int64(len(exprs))+1)
	round(10, 2*int64(len(exprs))+1)
}

// TestPoolHandleCacheEvicts overflows one worker's handle cache three
// times over, revisits its first texts, then does it all again with
// every request on its own tiered@N variant (each a derived engine view
// that lives only as long as its handle). Which handle the bound evicts
// is arbitrary, so nothing here counts hits exactly: every lookup is a
// hit or a miss, each distinct (variant, text) pair misses at least
// once, every result is the one a fresh engine computes, and closing
// the pool closes every handle.
func TestPoolHandleCacheEvicts(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1})
	ref, err := dfg.New(dfg.Config{Opt: "O2"})
	if err != nil {
		t.Fatal(err)
	}
	const n, distinct, again = 64, 3 * maxPreparedPerWorker, 8
	in := testInputs(n)
	var requests, pairs int64
	for _, tiered := range []bool{false, true} {
		for i := 0; i < distinct+again; i++ {
			k := i % distinct
			req := Request{Expr: fmt.Sprintf("r = u * %d + v", k), N: n, Inputs: in}
			if tiered {
				req.Strategy = fmt.Sprintf("tiered@%d", k+1) // device route up to k = 63, the vm beyond
			}
			got, err := p.Submit(context.Background(), req)
			if err != nil {
				t.Fatalf("%s %q: %v", req.Strategy, req.Expr, err)
			}
			want, err := ref.Eval(req.Expr, n, in)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want.Data {
				if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
					t.Fatalf("%s %q element %d = %v, want %v", req.Strategy, req.Expr, j, got.Data[j], want.Data[j])
				}
			}
			requests++
		}
		pairs += distinct
	}
	hits, misses := p.handleHits.Load(), p.handleMisses.Load()
	if served := p.Stats().Served; served != requests || hits+misses != requests {
		t.Fatalf("served %d, handle hits %d + misses %d, want %d each", served, hits, misses, requests)
	}
	if misses < pairs {
		t.Fatalf("handle misses = %d for %d distinct (variant, text) pairs", misses, pairs)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if live := p.LiveBuffers(); live != 0 {
		t.Fatalf("live buffers after close = %d, want 0", live)
	}
}

func TestPoolRequestTimeout(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, QueueDepth: 1})
	// A context that is already done must fail (either rejected at the
	// queue or expired before execution), never run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.Submit(ctx, Request{Expr: "r = u", N: 8, Inputs: testInputs(8)})
	if err == nil {
		t.Fatal("canceled request must fail")
	}
	if !errors.Is(err, ErrQueueTimeout) && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error: %v", err)
	}
	if p.Stats().Served != 0 {
		t.Fatal("canceled request must not execute")
	}
	// A generous timeout still succeeds.
	if _, err := p.Submit(context.Background(), Request{
		Expr: "r = u", N: 8, Inputs: testInputs(8), Timeout: 10 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolBadRequestsSurfaceErrors(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2})
	if _, err := p.Submit(context.Background(), Request{Expr: "r = $", N: 8, Inputs: testInputs(8)}); err == nil {
		t.Error("unparseable expression must fail")
	}
	if _, err := p.Submit(context.Background(), Request{Expr: "r = q", N: 8, Inputs: testInputs(8)}); err == nil {
		t.Error("missing source binding must fail")
	}
	st := p.Stats()
	if st.Failed != 2 || st.Served != 0 {
		t.Fatalf("stats = %+v, want 2 failed", st)
	}
}

// TestPoolShortSourceKeepsServing: a request whose bound array is
// shorter than N gets a typed error back — under the device strategies
// the out-of-range read used to happen inside a kernel worker
// goroutine, beyond any recover, and took the whole process down — and
// the pool then serves the next request as usual.
func TestPoolShortSourceKeepsServing(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2})
	const n = 65536 // large enough that the kernel fans out over goroutines
	for _, strat := range []string{"fusion", "vm", "staged"} {
		bad := testInputs(n)
		bad["v"] = bad["v"][:n/2]
		_, err := p.Submit(context.Background(), Request{Expr: "r = u + v", N: n, Inputs: bad, Strategy: strat})
		var short *strategy.ShortSourceError
		if !errors.As(err, &short) || short.Name != "v" {
			t.Fatalf("%s: short source: err = %v, want a ShortSourceError for v", strat, err)
		}
		res, err := p.Submit(context.Background(), Request{Expr: "r = u + v", N: n, Inputs: testInputs(n), Strategy: strat})
		if err != nil || len(res.Data) != n {
			t.Fatalf("%s: pool stopped serving after the rejected request: %v", strat, err)
		}
	}
	if st := p.Stats(); st.Failed != 3 || st.Served != 3 {
		t.Fatalf("stats = %+v, want 3 failed and 3 served", st)
	}
}

// TestPoolBadDimsKeepsServing: dims that do not describe an N-cell mesh
// come back as a typed error — the stencil used to divide by zero or
// index out of range on them inside a kernel worker goroutine, past the
// panic shield, ending the process — and the pool serves the next
// request as usual.
func TestPoolBadDimsKeepsServing(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2})
	const n = 16384 // fans out over goroutines under the device strategies
	const text = "g = grad3d(u, dims, x, y, z)\nr = g[0]"
	inputs := func(dims ...float32) map[string][]float32 {
		in := testInputs(n)
		in["dims"] = dims
		for _, c := range []string{"x", "y", "z"} {
			in[c] = in["u"] // strictly increasing, so every spacing is non-zero
		}
		return in
	}
	strats := []string{"fusion", "vm", "staged", "tiered"}
	for _, strat := range strats {
		for _, bad := range [][]float32{{0, 0, 0, 0}, {64, 64, 64, 0}} {
			_, err := p.Submit(context.Background(), Request{Expr: text, N: n, Inputs: inputs(bad...), Strategy: strat})
			var de *strategy.DimsError
			if !errors.As(err, &de) || de.Name != "dims" || de.N != n {
				t.Fatalf("%s dims=%v: err = %v, want a DimsError", strat, bad, err)
			}
		}
		res, err := p.Submit(context.Background(), Request{Expr: text, N: n, Inputs: inputs(32, 32, 16, 0), Strategy: strat})
		if err != nil || len(res.Data) != n {
			t.Fatalf("%s: pool stopped serving after the rejected requests: %v", strat, err)
		}
	}
	if st := p.Stats(); st.Failed != int64(2*len(strats)) || st.Served != int64(len(strats)) {
		t.Fatalf("stats = %+v, want %d failed and %d served", st, 2*len(strats), len(strats))
	}
}

// TestPoolGracefulShutdown: every request accepted before Close gets a
// response; requests after Close are rejected; Close is idempotent.
func TestPoolGracefulShutdown(t *testing.T) {
	p := newTestPool(t, Config{Workers: 4, QueueDepth: 32})
	const n = 2048
	in := testInputs(n)

	var chans []<-chan Response
	for i := 0; i < 24; i++ {
		chans = append(chans, p.EvalAsync(context.Background(), Request{
			Expr: "r = sqrt(u*u + v*v) + w", N: n, Inputs: in,
		}))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, ch := range chans {
		select {
		case r := <-ch:
			delivered++
			if r.Err != nil && !errors.Is(r.Err, ErrPoolClosed) {
				t.Fatalf("unexpected shutdown error: %v", r.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("response never delivered after Close")
		}
	}
	if delivered != len(chans) {
		t.Fatalf("delivered %d of %d responses", delivered, len(chans))
	}

	if _, err := p.Submit(context.Background(), Request{Expr: "r = u", N: 8, Inputs: testInputs(8)}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-Close submit: %v, want ErrPoolClosed", err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestPoolDefinitionsListed(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1})
	if err := p.Define("a", "u+1"); err != nil {
		t.Fatal(err)
	}
	if err := p.Define("b", "a*2"); err != nil {
		t.Fatal(err)
	}
	got := p.Definitions()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("definitions = %v", got)
	}
}

// BenchmarkPoolEval drives the pool at full concurrency with one hot
// expression — the serving scenario the shared compile cache exists for.
// The reported compiles/op metric collapsing toward zero is the cache
// at work (TestPoolCompilesHotExpressionOnce asserts the exact count).
func BenchmarkPoolEval(b *testing.B) {
	p := newTestPool(b, Config{Workers: 8, QueueDepth: 64})
	const n = 4096
	in := testInputs(n)
	req := Request{Expr: "r = sqrt(u*u + v*v + w*w)", N: n, Inputs: in}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := p.Submit(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := p.Stats()
	b.ReportMetric(float64(st.Compiles)/float64(b.N), "compiles/op")
	b.ReportMetric(float64(st.Served), "served")
}

// TestPoolOptLevels covers the optimisation-level surface of the
// service: the pool defaults to O2, per-request Opt overrides route to
// a Paper-level engine view, both levels return identical data for the
// paper expressions, a bad level fails the request (not the pool), and
// the per-pass counters land in the metrics registry.
func TestPoolOptLevels(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2})
	const n = 64
	expr := "r = u*1 + 0*v + sqrt(w*w)"

	o2, err := p.Submit(context.Background(), Request{Expr: expr, N: n, Inputs: testInputs(n)})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := p.Submit(context.Background(), Request{Expr: expr, N: n, Inputs: testInputs(n), Opt: "paper"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range paper.Data {
		if paper.Data[i] != o2.Data[i] {
			t.Fatalf("element %d: paper %v vs O2 %v", i, paper.Data[i], o2.Data[i])
		}
	}

	if _, err := p.Submit(context.Background(), Request{Expr: expr, N: n, Inputs: testInputs(n), Opt: "O3"}); err == nil {
		t.Fatal("bad opt level must fail the request")
	}
	// The pool survives a bad-level request.
	if _, err := p.Submit(context.Background(), Request{Expr: expr, N: n, Inputs: testInputs(n)}); err != nil {
		t.Fatalf("pool broken after bad opt level: %v", err)
	}

	// Both levels' compiles ran, so the shared pass aggregates must show
	// the Paper passes with at least two runs and the O2-only passes
	// with at least one, all surfaced through the registry.
	var buf strings.Builder
	if err := obs.WritePrometheus(&buf, p.Registry()); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	for _, pass := range []string{"constpool", "cse", "algebraic", "decompose-forward", "dce"} {
		probe := fmt.Sprintf(`dfg_pass_runs_total{pass=%q}`, pass)
		if !strings.Contains(exposition, probe) {
			t.Errorf("exposition lacks %s", probe)
		}
	}
	if got := p.comp.PassStat("cse").Runs; got < 2 {
		t.Errorf("cse pass ran %d times, want >= 2 (one per level)", got)
	}
	if got := p.comp.PassStat("dce").Runs; got < 1 {
		t.Errorf("dce pass ran %d times, want >= 1 (O2 compile)", got)
	}
	if p.comp.PassStat("cse").Seconds <= 0 {
		t.Error("cse pass seconds not accumulated")
	}
}

// TestPoolPaperLevelConfig pins that a pool can opt back into the exact
// paper front end pool-wide.
func TestPoolPaperLevelConfig(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, Opt: "paper"})
	const n = 16
	if _, err := p.Submit(context.Background(), Request{Expr: "r = u + v", N: n, Inputs: testInputs(n)}); err != nil {
		t.Fatal(err)
	}
	if got := p.comp.PassStat("dce").Runs; got != 0 {
		t.Errorf("paper-level pool ran dce %d times, want 0", got)
	}
}

// usedVM reports whether a response came from the host VM tier (no
// device events of any kind).
func usedVM(res *dfg.Result) bool {
	return res.Profile.Kernels == 0 && res.Profile.Writes == 0 && res.Profile.Reads == 0
}

// TestPoolStrategyOverride: a per-request Strategy wins over the pool
// default, both directions — "vm" on a fusion pool runs with zero
// device traffic, and a device strategy on a tiered pool bypasses the
// tier routing — with identical results throughout.
func TestPoolStrategyOverride(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, Strategy: "fusion"})
	const n = 64
	expr := "r = sqrt(u*u + v*v + w*w)"

	base, err := p.Submit(context.Background(), Request{Expr: expr, N: n, Inputs: testInputs(n)})
	if err != nil {
		t.Fatal(err)
	}
	if usedVM(base) {
		t.Fatalf("fusion pool default ran on the vm: %+v", base.Profile)
	}
	vm, err := p.Submit(context.Background(), Request{Expr: expr, N: n, Inputs: testInputs(n), Strategy: "vm"})
	if err != nil {
		t.Fatal(err)
	}
	if !usedVM(vm) {
		t.Fatalf("Strategy=vm request still touched the device: %+v", vm.Profile)
	}
	for i := range base.Data {
		if math.Float32bits(base.Data[i]) != math.Float32bits(vm.Data[i]) {
			t.Fatalf("element %d: vm %v vs fusion %v", i, vm.Data[i], base.Data[i])
		}
	}
	// Unknown strategy fails the request, not the pool.
	if _, err := p.Submit(context.Background(), Request{Expr: expr, N: n, Inputs: testInputs(n), Strategy: "warp"}); err == nil {
		t.Fatal("bad strategy must fail the request")
	}
	if _, err := p.Submit(context.Background(), Request{Expr: expr, N: n, Inputs: testInputs(n)}); err != nil {
		t.Fatalf("pool broken after bad strategy: %v", err)
	}
}

// TestPoolTieredConfig: a tiered pool routes a below-threshold request
// to the VM and an at-threshold request to the device, and a
// per-request device-strategy override beats the tier routing.
func TestPoolTieredConfig(t *testing.T) {
	const th = 128
	p := newTestPool(t, Config{Workers: 1, Strategy: fmt.Sprintf("tiered@%d", th)})
	expr := "r = sqrt(u*u + v*v + w*w)"

	small, err := p.Submit(context.Background(), Request{Expr: expr, N: th - 1, Inputs: testInputs(th - 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !usedVM(small) {
		t.Fatalf("below-threshold request missed the vm tier: %+v", small.Profile)
	}
	large, err := p.Submit(context.Background(), Request{Expr: expr, N: th, Inputs: testInputs(th)})
	if err != nil {
		t.Fatal(err)
	}
	if usedVM(large) {
		t.Fatalf("at-threshold request ran on the vm: %+v", large.Profile)
	}
	forced, err := p.Submit(context.Background(), Request{Expr: expr, N: th - 1, Inputs: testInputs(th - 1), Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	if usedVM(forced) {
		t.Fatalf("Strategy=fusion override still routed to the vm: %+v", forced.Profile)
	}
	for i := range small.Data {
		if math.Float32bits(small.Data[i]) != math.Float32bits(forced.Data[i]) {
			t.Fatalf("element %d: vm tier %v vs forced fusion %v", i, small.Data[i], forced.Data[i])
		}
	}
}
