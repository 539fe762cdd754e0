package serve

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfg/internal/obs"
	"dfg/internal/ocl"
)

// batchExprs is an overlapping request mix: every expression shares the
// u*u + v*v + w*w subtree, and two members are textually identical.
var batchExprs = []string{
	"r = sqrt(u*u + v*v + w*w)",
	"r = u*u + v*v + w*w",
	"r = sqrt(u*u + v*v + w*w) + 2.0 * w",
	"r = sqrt(u*u + v*v + w*w)",
	"r = (u*u + v*v + w*w) * 0.5",
	"r = sqrt(u*u + v*v + w*w) - w",
}

// TestPoolBatchingDifferential is the serve-layer acceptance gate:
// overlapping requests submitted within one forming window merge into a
// batch, the results are bitwise identical to an unbatched pool, shared
// subtrees are eliminated, and the merged run dispatches strictly fewer
// kernels than per-request evaluation would.
func TestPoolBatchingDifferential(t *testing.T) {
	const n = 1024
	in := testInputs(n) // one shared binding: identity is part of the batch key

	solo := newTestPool(t, Config{Workers: 1})
	want := make([][]float32, len(batchExprs))
	for i, expr := range batchExprs {
		res, err := solo.Submit(context.Background(), Request{Expr: expr, N: n, Inputs: in})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Data
	}

	p := newTestPool(t, Config{Workers: 1, BatchWindow: 50 * time.Millisecond})
	chans := make([]<-chan Response, len(batchExprs))
	for i, expr := range batchExprs {
		chans[i] = p.EvalAsync(context.Background(), Request{Expr: expr, N: n, Inputs: in})
	}
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("member %d: %v", i, r.Err)
		}
		if len(r.Result.Data) != n {
			t.Fatalf("member %d: %d elements", i, len(r.Result.Data))
		}
		for j := range want[i] {
			if math.Float32bits(r.Result.Data[j]) != math.Float32bits(want[i][j]) {
				t.Fatalf("member %d diverges at element %d: batched %v vs solo %v",
					i, j, r.Result.Data[j], want[i][j])
			}
		}
	}

	st := p.Stats()
	if st.Served != int64(len(batchExprs)) {
		t.Fatalf("served = %d, want %d", st.Served, len(batchExprs))
	}
	if st.Batches == 0 {
		t.Fatal("no batch formed: requests within one window did not merge")
	}
	if st.BatchSplits != 0 {
		t.Fatalf("healthy batch split %d times", st.BatchSplits)
	}
	if st.BatchShared == 0 {
		t.Fatal("dfg_batch_cse_nodes_shared_total stayed zero for overlapping expressions")
	}
	// Solo fusion dispatches one kernel per request; the merged run must
	// beat that strictly.
	if st.Profile.Kernels >= int(st.Served) {
		t.Fatalf("aggregate kernels = %d for %d served: batching saved no launches",
			st.Profile.Kernels, st.Served)
	}
}

// TestPoolBatchOfOneStaysSolo: a lone request on a batching pool rides
// the ordinary solo path after its window — no batch job, no merged
// plan, same answer.
func TestPoolBatchOfOneStaysSolo(t *testing.T) {
	const n = 256
	in := testInputs(n)
	p := newTestPool(t, Config{Workers: 1, BatchWindow: time.Millisecond})
	res, err := p.Submit(context.Background(), Request{Expr: batchExprs[0], N: n, Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != n {
		t.Fatalf("%d elements", len(res.Data))
	}
	st := p.Stats()
	if st.Batches != 0 {
		t.Fatalf("lone request executed as a batch (%d)", st.Batches)
	}
	if st.Served != 1 {
		t.Fatalf("served = %d", st.Served)
	}
}

// TestPoolBatchSplitsOnFault: a merged run that dies mid-batch degrades,
// never drops — the batch splits back to per-member solo evaluation on
// the rebuilt worker and every member still gets its answer.
func TestPoolBatchSplitsOnFault(t *testing.T) {
	const n = 512
	in := testInputs(n)
	var armed atomic.Bool
	armed.Store(true)
	p, err := NewPool(Config{
		Workers:     1,
		BatchWindow: 50 * time.Millisecond,
		FaultPlanFor: func(worker int) *ocl.FaultPlan {
			// First engine panics on its first kernel launch — which is the
			// merged batch run. The rebuilt engine is clean.
			if armed.CompareAndSwap(true, false) {
				return ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultKernel, Nth: 0, Effect: ocl.EffectPanic})
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	chans := make([]<-chan Response, len(batchExprs))
	for i, expr := range batchExprs {
		chans[i] = p.EvalAsync(context.Background(), Request{Expr: expr, N: n, Inputs: in})
	}
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("member %d after split: %v", i, r.Err)
		}
		if len(r.Result.Data) != n {
			t.Fatalf("member %d: %d elements", i, len(r.Result.Data))
		}
	}
	st := p.Stats()
	if st.BatchSplits == 0 {
		t.Fatal("faulted batch did not split")
	}
	if st.Restarts == 0 {
		t.Fatal("panicking worker was not restarted")
	}
	if st.Served != int64(len(batchExprs)) || st.Failed != 0 {
		t.Fatalf("served=%d failed=%d, want %d/0 — members dropped or failed", st.Served, st.Failed, len(batchExprs))
	}
}

// TestPoolBatchMetricsExposed: the batch metric family is registered and
// rendered in the Prometheus exposition, and forming wait is attributed
// separately from queue wait.
func TestPoolBatchMetricsExposed(t *testing.T) {
	const n = 128
	in := testInputs(n)
	p := newTestPool(t, Config{Workers: 1, BatchWindow: 20 * time.Millisecond})
	chans := make([]<-chan Response, 4)
	for i := range chans {
		chans[i] = p.EvalAsync(context.Background(), Request{Expr: batchExprs[i], N: n, Inputs: in})
	}
	for _, ch := range chans {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	var buf strings.Builder
	if err := obs.WritePrometheus(&buf, p.Registry()); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	for _, metric := range []string{
		"dfg_batches_total",
		"dfg_batch_splits_total",
		"dfg_batch_cse_nodes_shared_total",
		"dfg_batch_forming_wait_seconds",
		"dfg_batch_size",
	} {
		if !strings.Contains(exposition, metric) {
			t.Errorf("exposition lacks %s", metric)
		}
	}
}

// TestPoolBatchFormingStress is the -race soak over the forming queue:
// concurrent clients submitting merge-keyed requests mixed with
// already-canceled contexts and instantly-expiring timeouts, with the
// pool closed mid-stream. The invariant is total accounting — every
// single EvalAsync channel delivers exactly one response (success or a
// typed error), whether its job was solo, mid-forming at Close, or a
// member of a batch in flight.
func TestPoolBatchFormingStress(t *testing.T) {
	const (
		n         = 256
		clients   = 8
		perClient = 25
	)
	// Two distinct bindings → two live batch keys at any moment.
	bindings := []map[string][]float32{testInputs(n), testInputs(n)}
	p, err := NewPool(Config{
		Workers:     4,
		QueueDepth:  64,
		BatchWindow: 200 * time.Microsecond,
		BatchMax:    8,
		TraceKeep:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	responses := make(chan Response, clients*perClient)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perClient; i++ {
				req := Request{
					Expr:   batchExprs[(c+i)%len(batchExprs)],
					N:      n,
					Inputs: bindings[(c+i)%len(bindings)],
				}
				ctx := context.Background()
				switch {
				case i%5 == 3: // canceled before submit
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				case i%7 == 4: // expires while forming or queued
					req.Timeout = time.Nanosecond
				}
				ch := p.EvalAsync(ctx, req)
				wg.Add(1)
				go func() {
					defer wg.Done()
					select {
					case r := <-ch:
						responses <- r
					case <-time.After(10 * time.Second):
						t.Error("response never delivered")
					}
				}()
			}
		}()
	}
	close(start)
	// Close mid-stream: in-flight and mid-forming requests must still be
	// answered; late submissions get ErrPoolClosed.
	time.Sleep(2 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(responses)

	var served, failed int
	for r := range responses {
		if r.Err == nil {
			served++
			continue
		}
		failed++
		if !errors.Is(r.Err, ErrPoolClosed) && !errors.Is(r.Err, ErrQueueTimeout) &&
			!errors.Is(r.Err, context.Canceled) {
			t.Errorf("unexpected error class: %v", r.Err)
		}
	}
	if served+failed != clients*perClient {
		t.Fatalf("accounted %d of %d requests — responses dropped", served+failed, clients*perClient)
	}
	st := p.Stats()
	if st.Served != int64(served) {
		t.Fatalf("pool served=%d, clients observed %d", st.Served, served)
	}
}

// TestPoolBatchKeySeparation: requests differing in Opt or input
// identity never merge — each key forms its own batch (or rides solo).
func TestPoolBatchKeySeparation(t *testing.T) {
	const n = 128
	inA, inB := testInputs(n), testInputs(n)
	p := newTestPool(t, Config{Workers: 2, BatchWindow: 20 * time.Millisecond})
	var chans []<-chan Response
	// Same expressions, two different bindings, plus one per-request Opt
	// override: three distinct keys.
	for i := 0; i < 3; i++ {
		chans = append(chans,
			p.EvalAsync(context.Background(), Request{Expr: batchExprs[i], N: n, Inputs: inA}),
			p.EvalAsync(context.Background(), Request{Expr: batchExprs[i], N: n, Inputs: inB}),
			p.EvalAsync(context.Background(), Request{Expr: batchExprs[i], N: n, Inputs: inA, Opt: "paper"}),
		)
	}
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	st := p.Stats()
	if st.Served != 9 {
		t.Fatalf("served = %d, want 9", st.Served)
	}
	if st.Batches < 2 {
		t.Fatalf("batches = %d, want >= 2 (one per key with >1 member)", st.Batches)
	}
}

// TestPoolBatchMergesEqualVariants: on a tiered pool, a request naming
// no strategy and one naming "tiered" ask for the same variant over the
// same inputs, so the former merges them into one two-member job.
func TestPoolBatchMergesEqualVariants(t *testing.T) {
	const n = 128
	in := testInputs(n)
	p := newTestPool(t, Config{Workers: 1, Strategy: "tiered", BatchWindow: time.Second, BatchMax: 2})
	a := p.EvalAsync(context.Background(), Request{Expr: batchExprs[0], N: n, Inputs: in})
	b := p.EvalAsync(context.Background(), Request{Expr: batchExprs[1], N: n, Inputs: in, Strategy: "tiered"})
	for i, ch := range []<-chan Response{a, b} {
		if r := <-ch; r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	if st := p.Stats(); st.Batches != 1 || st.Served != 2 {
		t.Fatalf("batches = %d, served = %d; want one merged job serving both", st.Batches, st.Served)
	}
}

// TestBatchKeyInputIdentity: the batch key tells input arrays apart by
// identity and length — not by content — and keys zero-length arrays
// without an address.
func TestBatchKeyInputIdentity(t *testing.T) {
	u := []float32{1, 2, 3, 4}
	twin := []float32{1, 2, 3, 4}
	key := inputIdentity
	if key(map[string][]float32{"u": u}) != key(map[string][]float32{"u": u[:4]}) {
		t.Error("one array keyed twice differently")
	}
	for _, other := range []map[string][]float32{
		{"u": twin}, {"u": u[:3]}, {"v": u}, {"u": u, "v": u},
	} {
		if key(map[string][]float32{"u": u}) == key(other) {
			t.Errorf("%v keys like u", other)
		}
	}
	if key(map[string][]float32{"u": nil}) != key(map[string][]float32{"u": u[:0]}) {
		t.Error("zero-length inputs must key alike")
	}
	if key(map[string][]float32{"u": nil}) == key(map[string][]float32{"u": u}) {
		t.Error("an empty input keys like a full one")
	}
}
