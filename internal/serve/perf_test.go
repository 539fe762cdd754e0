package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dfg"
	"dfg/internal/ocl"
	"dfg/internal/perfdb"
)

// perfReq is a small healthy request the perf tests reuse.
func perfReq() Request {
	n := 64
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i)
	}
	return Request{Expr: "f = x*2 + 1", N: n, Inputs: map[string][]float32{"x": xs}}
}

// TestPerfRecordsEveryEvaluation: the pool's always-on recorder holds
// one record per served request, carrying identity, timings and — for a
// tiered request routed to the host VM — the resolved tier.
func TestPerfRecordsEveryEvaluation(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2, Device: dfg.CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const reqs = 6
	for i := 0; i < reqs; i++ {
		if _, err := pool.Submit(context.Background(), perfReq()); err != nil {
			t.Fatal(err)
		}
	}
	// A tiered request below the threshold must resolve to the VM tier.
	tiered := perfReq()
	tiered.Strategy = "tiered@4096"
	if _, err := pool.Submit(context.Background(), tiered); err != nil {
		t.Fatal(err)
	}

	rec := pool.PerfRecorder()
	if got := rec.Recorded(); got != reqs+1 {
		t.Fatalf("Recorded = %d, want %d", got, reqs+1)
	}
	snap := rec.Snapshot()
	var sawResolved bool
	for _, r := range snap {
		if r.Fingerprint == "" || r.Strategy == "" || r.Device == "" || r.Opt == "" {
			t.Fatalf("record missing identity: %+v", r)
		}
		if r.TotalNS <= 0 {
			t.Fatalf("record missing total time: %+v", r)
		}
		if r.TraceID == "" {
			t.Fatalf("record missing trace id (tracing is on by default): %+v", r)
		}
		if r.QueueWaitNS < 0 {
			t.Fatalf("negative queue wait: %+v", r)
		}
		if strings.HasPrefix(r.Strategy, "tiered@") && r.Resolved == "vm" {
			sawResolved = true
		}
	}
	if !sawResolved {
		t.Fatalf("no record resolved tiered -> vm; snapshot: %+v", snap)
	}
}

// TestWarmSubmitAllocBudget gates the allocations of one warm request on
// the repo benchmark's serve pool shape (2 workers, queue 8, tiered, O2,
// 12³ elements, tracing and the perf recorder on): a hot text answered
// from a worker's handle cache costs at most 6 allocations, counted
// across every goroutine the request touches, and reads 6 with and
// without the race detector: the response channel and its buffer, the
// request (member, job and member list in one object), the trace (root,
// attributes, children and stages in one block), the Result and the
// answer. It read 16 while the trace allocated each span, its attribute
// and child arrays and its ID string, and the request its member, job,
// member list and texts apart (18 before a lone request was answered
// with its Result itself; 34 before bindings were read in place, the VM
// bound into reused scratch, a request nothing can cancel early derived
// no context and a trace root was sized once). Which worker draws a
// request is the scheduler's choice, so a measurement during which some
// worker still had to prepare the text is taken again.
func TestWarmSubmitAllocBudget(t *testing.T) {
	pool := newTestPool(t, Config{Workers: 2, QueueDepth: 8, Strategy: "tiered", Opt: "O2"})
	const n = 12 * 12 * 12
	req := Request{Expr: "m = sqrt(u*u + v*v + w*w)\nr = m * 1.5 + w", N: n, Inputs: testInputs(n)}
	submit := func() {
		if _, err := pool.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		submit()
	}
	var allocs float64
	for attempt := 0; attempt < 3; attempt++ {
		misses := pool.handleMisses.Load()
		allocs = testing.AllocsPerRun(500, submit)
		if pool.handleMisses.Load() == misses {
			break
		}
	}
	t.Logf("warm Submit: %.2f allocations", allocs)
	if allocs > 6 {
		t.Fatalf("warm Submit costs %.2f allocations, budget 6", allocs)
	}
}

// TestFlushPerfConcurrentWithClose: FlushPerf racing a draining Close
// (and racing in-flight evaluations) must stay safe and both snapshots
// must parse. Run under -race in CI.
func TestFlushPerfConcurrentWithClose(t *testing.T) {
	dir := t.TempDir()
	pool, err := NewPool(Config{Workers: 2, Device: dfg.CPU, Strategy: "fusion", PerfDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				pool.Submit(context.Background(), perfReq())
			}
		}()
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := pool.FlushPerf(); err != nil {
					t.Errorf("concurrent FlushPerf: %v", err)
					return
				}
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := pool.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(stop)
	wg.Wait()

	files, err := filepath.Glob(filepath.Join(dir, "perfdb-*.jsonl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no perfdb snapshots written (err=%v)", err)
	}
	// Every snapshot — including the mid-drain ones — must parse, and the
	// set must include Close's final flush covering all served requests.
	var maxRecs int
	for _, f := range files {
		meta, recs, err := perfdb.Load(f)
		if err != nil {
			t.Fatalf("load %s: %v", f, err)
		}
		if meta.Schema != perfdb.Schema {
			t.Fatalf("%s: schema %q", f, meta.Schema)
		}
		if len(recs) > maxRecs {
			maxRecs = len(recs)
		}
	}
	if served := pool.Stats().Served; int64(maxRecs) < served {
		t.Fatalf("final snapshot has %d records, want >= %d served", maxRecs, served)
	}
}

// TestFlightDumpOnBreakerTrip: a device loss rescued by the recovery
// ladder still trips the breaker, which must leave a parseable flight
// dump whose last trace is the tripping request's span tree. This is the
// acceptance gate for the postmortem path, and runs under -race in CI.
// With tracing off (TraceKeep < 0) the dump still carries the recent
// perf records, and no traces.
func TestFlightDumpOnBreakerTrip(t *testing.T) {
	for _, keep := range []int{0, -1} {
		dir := t.TempDir()
		var armed bool
		pool, err := NewPool(Config{
			Workers:         1,
			Device:          dfg.CPU,
			Strategy:        "fusion",
			PerfDir:         dir,
			TraceKeep:       keep,
			BreakerCooldown: time.Hour, // keep the trip visible
			FaultPlanFor: func(worker int) *ocl.FaultPlan {
				if !armed {
					armed = true
					return ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultAny, Nth: 0, Effect: ocl.EffectDeviceLost})
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()

		// The device dies on the first kernel; the VM rung rescues the
		// request, the breaker trips, and the trip must dump.
		req := perfReq()
		if _, err := pool.Submit(context.Background(), req); err != nil {
			t.Fatalf("TraceKeep %d: rescued request failed: %v", keep, err)
		}
		if states := pool.BreakerStates(); states[0] != "open" {
			t.Fatalf("TraceKeep %d: breaker = %q, want open", keep, states[0])
		}

		files, err := filepath.Glob(filepath.Join(dir, "flight-*-breaker-trip.json"))
		if err != nil || len(files) != 1 {
			t.Fatalf("TraceKeep %d: breaker-trip dumps = %v (err=%v), want exactly one", keep, files, err)
		}
		d, err := perfdb.LoadFlight(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if d.Reason != "breaker-trip" || len(d.Recent) == 0 {
			t.Fatalf("TraceKeep %d: dump reason=%q recent=%d", keep, d.Reason, len(d.Recent))
		}
		if got := pool.flightDumps.Load(); got != 1 {
			t.Fatalf("TraceKeep %d: dumps = %d, want 1", keep, got)
		}
		if keep < 0 {
			if len(d.Traces) != 0 {
				t.Fatalf("tracing off: dump carries %d traces, want 0", len(d.Traces))
			}
			continue
		}
		if len(d.Traces) == 0 {
			t.Fatal("dump carries no traces")
		}
		last := d.Traces[len(d.Traces)-1]
		if last.Name != "request" || last.ID == "" {
			t.Fatalf("tripping request's span tree missing: %+v", last)
		}
		if last.Attr("worker") != "0" || last.Attr("expr") != req.Expr {
			t.Fatalf("root does not name its worker and expression: %v", last.Attrs)
		}
		// The rescue is visible in the tree: the ladder recorded a fallback
		// and the evaluation resolved to the VM rung.
		if last.Find("fallback") == nil {
			t.Fatalf("span tree lacks the fallback rung:\n%+v", last)
		}
	}
}

// TestPerfHTTPSurface covers the introspection endpoints: the trace_id
// of a kept trace on /slow, its /trace/{id} lookup in both formats,
// pprof gating, the perf/runtime series on /metrics, and no
// /exemplars.
func TestPerfHTTPSurface(t *testing.T) {
	pool, err := NewPool(Config{Workers: 1, Device: dfg.CPU, Strategy: "fusion", EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Submit(context.Background(), perfReq()); err != nil {
		t.Fatal(err)
	}
	// An erroring request: its trace is kept, so /slow lists it.
	unbound := perfReq()
	unbound.Inputs = nil
	if _, err := pool.Submit(context.Background(), unbound); err == nil {
		t.Fatal("request without inputs succeeded")
	}
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, name := range []string{"dfg_perf_records_total", "go_goroutines", "dfg_flight_dumps_total", `resolved="fusion"`} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}

	if code, _ = get("/exemplars"); code != http.StatusNotFound {
		t.Fatalf("/exemplars: %d, want 404", code)
	}

	// Pull a live trace ID off /slow and resolve it.
	code, body = get("/slow")
	if code != http.StatusOK || !strings.Contains(body, "trace_id=") {
		t.Fatalf("/slow: %d %q", code, body)
	}
	line := body[strings.Index(body, "trace_id=")+len("trace_id="):]
	id := strings.Fields(line)[0]
	code, body = get("/trace/" + id)
	if code != http.StatusOK || !strings.Contains(body, "trace "+id) {
		t.Fatalf("/trace/{id}: %d %q", code, body)
	}
	code, body = get("/trace/" + id + "?format=json")
	if code != http.StatusOK || !strings.Contains(body, `"name": "request"`) {
		t.Fatalf("/trace/{id}?format=json: %d %q", code, body)
	}
	if code, _ = get("/trace/nope"); code != http.StatusNotFound {
		t.Fatalf("/trace/nope: %d, want 404", code)
	}

	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ with EnablePprof: %d", code)
	}

	// pprof is off by default.
	plain, err := NewPool(Config{Workers: 1, Device: dfg.CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	srv2 := httptest.NewServer(plain.Handler())
	defer srv2.Close()
	resp, err := http.Get(srv2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without EnablePprof: %d, want 404", resp.StatusCode)
	}
}

// TestFakeClockRunsReadOneClock: on a pool clock the library does not
// read (the replay harness's), a run's length is read on one clock: the
// perf record's TotalNS on the library's, the response's Run and busy
// time on the pool's, with tracing on and off. Timing the run from the
// fake pickup to the library's end would read decades.
func TestFakeClockRunsReadOneClock(t *testing.T) {
	for _, keep := range []int{0, -1} {
		clk := &fakeClock{t: replayEpoch}
		p, err := newPool(Config{Workers: 1, Device: dfg.CPU, Strategy: "fusion", TraceKeep: keep}, clk)
		if err != nil {
			t.Fatal(err)
		}
		clk.tick = p.tick
		ch := p.EvalAsync(context.Background(), perfReq())
		p.run(p.ws[0], <-p.queue)
		r := <-ch
		if r.Err != nil || r.Run != 0 {
			t.Errorf("TraceKeep %d: response ran %v (err %v) on a clock that did not move", keep, r.Run, r.Err)
		}
		if busy := p.busy[0].Load(); busy != 0 {
			t.Errorf("TraceKeep %d: busy %v on a clock that did not move", keep, time.Duration(busy))
		}
		p.Close()
		p.worker(p.ws[0])
		snap := p.PerfRecorder().Snapshot()
		if len(snap) != 1 {
			t.Fatalf("TraceKeep %d: %d records, want 1", keep, len(snap))
		}
		if total := time.Duration(snap[0].TotalNS); total <= 0 || total > time.Minute {
			t.Errorf("TraceKeep %d: TotalNS = %v, want the run's wall time", keep, total)
		}
	}
}

// TestPerfRecordCarriesQueueWait: the queue wait serve measures reaches
// the request's perf record exactly, with tracing on and off. The pool
// runs on the replay harness's fake clock, so the wait is known.
func TestPerfRecordCarriesQueueWait(t *testing.T) {
	const wait = 7 * time.Millisecond
	for _, keep := range []int{0, -1} {
		clk := &fakeClock{t: replayEpoch}
		p, err := newPool(Config{Workers: 1, Device: dfg.CPU, Strategy: "fusion", TraceKeep: keep}, clk)
		if err != nil {
			t.Fatal(err)
		}
		clk.tick = p.tick
		ch := p.EvalAsync(context.Background(), perfReq())
		clk.advance(wait)
		p.run(p.ws[0], <-p.queue)
		if r := <-ch; r.Err != nil || r.Wait != wait {
			t.Fatalf("TraceKeep %d: response waited %v (err %v), want %v", keep, r.Wait, r.Err, wait)
		}
		p.Close()
		p.worker(p.ws[0]) // the queue is closed and empty: the worker exits
		snap := p.PerfRecorder().Snapshot()
		if len(snap) != 1 {
			t.Fatalf("TraceKeep %d: %d records, want 1", keep, len(snap))
		}
		if got := time.Duration(snap[0].QueueWaitNS); got != wait {
			t.Errorf("TraceKeep %d: QueueWaitNS = %v, want %v", keep, got, wait)
		}
		if traced := snap[0].TraceID != ""; traced != (keep >= 0) {
			t.Errorf("TraceKeep %d: record trace id %q", keep, snap[0].TraceID)
		}
	}
}
