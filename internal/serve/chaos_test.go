package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dfg"
	"dfg/internal/ocl"
)

// chaosReq is a small healthy request the chaos tests reuse.
func chaosReq() Request {
	n := 64
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i)
	}
	return Request{Expr: "f = x*2 + 1", N: n, Inputs: map[string][]float32{"x": xs}}
}

// TestWorkerPanicRecovery proves an injected device panic neither kills
// the worker nor wedges the pool: the panicking request gets a typed
// ErrWorkerPanic response, the worker rebuilds its engine on a fresh
// device, and every subsequent request is served normally.
func TestWorkerPanicRecovery(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	pool, err := NewPool(Config{
		Workers:   1,
		Device:    dfg.CPU,
		Strategy:  "fusion",
		TraceKeep: -1,
		FaultPlanFor: func(worker int) *ocl.FaultPlan {
			// Only the first engine gets the bomb; the rebuilt one is clean.
			if armed.CompareAndSwap(true, false) {
				return ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultKernel, Nth: 0, Effect: ocl.EffectPanic})
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	_, err = pool.Submit(context.Background(), chaosReq())
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("panicking request: got %v, want ErrWorkerPanic", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := pool.Submit(context.Background(), chaosReq()); err != nil {
			t.Fatalf("request %d after restart: %v", i, err)
		}
	}
	st := pool.Stats()
	if st.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", st.Restarts)
	}
	if st.Served != 5 || st.Failed != 1 {
		t.Fatalf("served=%d failed=%d, want 5/1", st.Served, st.Failed)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if n := pool.LiveBuffers(); n != 0 {
		t.Fatalf("live buffers after close = %d, want 0", n)
	}
}

// TestBreakerTripsAndProbeHeals walks a single worker's breaker through
// its full cycle: a device-lost fault is rescued by the recovery
// ladder's host-VM rung (the request still succeeds, with zero device
// traffic) but trips the breaker anyway, requests during the cooldown
// fail typed ErrWorkerUnavailable (a one-worker pool has nowhere to
// reroute), and after the cooldown the half-open probe heals the device
// and recloses the breaker.
func TestBreakerTripsAndProbeHeals(t *testing.T) {
	cooldown := 50 * time.Millisecond
	var armed atomic.Bool
	armed.Store(true)
	pool, err := NewPool(Config{
		Workers:         1,
		Device:          dfg.CPU,
		Strategy:        "fusion",
		TraceKeep:       -1,
		BreakerCooldown: cooldown,
		FaultPlanFor: func(worker int) *ocl.FaultPlan {
			if armed.CompareAndSwap(true, false) {
				// One-shot device loss on the first kernel launch.
				return ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultAny, Nth: 0, Effect: ocl.EffectDeviceLost})
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	res, err := pool.Submit(context.Background(), chaosReq())
	if err != nil {
		t.Fatalf("first request: %v (the vm rung should have rescued the lost device)", err)
	}
	if res.Profile.Kernels != 0 || res.Profile.Writes != 0 || res.Profile.Reads != 0 {
		t.Fatalf("rescued request touched the lost device: %+v", res.Profile)
	}
	if states := pool.BreakerStates(); states[0] != "open" {
		t.Fatalf("breaker after device loss = %q, want open (vm rescue must still trip it)", states[0])
	}
	// Still cooling: nothing to reroute to, so the typed 5xx surfaces.
	if _, err := pool.Submit(context.Background(), chaosReq()); !errors.Is(err, ErrWorkerUnavailable) {
		t.Fatalf("request during cooldown: got %v, want ErrWorkerUnavailable", err)
	}
	if st := pool.Stats(); st.Rerouted == 0 {
		t.Fatalf("rerouted = 0, want the cooled-down job to have bounced at least once")
	}

	time.Sleep(cooldown + 20*time.Millisecond)
	// The half-open probe heals the latched loss; the one-shot fault rule
	// is spent, so the probe succeeds and recloses the breaker.
	if _, err := pool.Submit(context.Background(), chaosReq()); err != nil {
		t.Fatalf("probe request: %v", err)
	}
	if states := pool.BreakerStates(); states[0] != "closed" {
		t.Fatalf("breaker after successful probe = %q, want closed", states[0])
	}
	if st := pool.Stats(); st.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0 (probe healed, no replacement)", st.Restarts)
	}
}

// TestDeviceReplacedAfterFailedProbes proves a device that stays dead
// through replaceAfterProbes heal-and-probe cycles is replaced: the
// worker rebuilds its engine on a fresh device, the fault plan is
// re-requested (now clean), and service resumes.
func TestDeviceReplacedAfterFailedProbes(t *testing.T) {
	cooldown := 5 * time.Millisecond
	var builds atomic.Int64
	pool, err := NewPool(Config{
		Workers:         1,
		Device:          dfg.CPU,
		Strategy:        "fusion",
		TraceKeep:       -1,
		BreakerCooldown: cooldown,
		FaultPlanFor: func(worker int) *ocl.FaultPlan {
			if builds.Add(1) == 1 {
				// The first device loses itself on every kernel launch:
				// healing never sticks.
				return ocl.NewFaultPlan(1).Add(ocl.FaultRule{
					Op: ocl.FaultKernel, Nth: 0, Times: 1 << 30, Effect: ocl.EffectDeviceLost,
				})
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	deadline := time.Now().Add(5 * time.Second)
	for pool.Stats().Restarts == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("device never replaced; stats %+v, breakers %v", pool.Stats(), pool.BreakerStates())
		}
		pool.Submit(context.Background(), chaosReq())
		time.Sleep(cooldown * 2)
	}
	if got := builds.Load(); got < 2 {
		t.Fatalf("fault plan requested %d times, want >= 2 (replacement re-arms chaos)", got)
	}
	// The replacement device is clean; service resumes.
	if _, err := pool.Submit(context.Background(), chaosReq()); err != nil {
		t.Fatalf("request after replacement: %v", err)
	}
	if states := pool.BreakerStates(); states[0] != "closed" {
		t.Fatalf("breaker after replacement = %q, want closed", states[0])
	}
}

// TestRerouteOffTrippedDevice runs a two-worker pool where one device
// dies permanently: every request still succeeds because jobs drawn by
// the tripped worker bounce back onto the queue for the healthy one —
// lone requests and, on the batching row, full batches of three alike.
func TestRerouteOffTrippedDevice(t *testing.T) {
	for _, row := range []struct {
		name  string
		group int // requests submitted together each round
		cfg   Config
	}{
		{"solo", 1, Config{}},
		{"batch", 3, Config{BatchWindow: 20 * time.Millisecond, BatchMax: 3}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			cfg.Workers = 2
			cfg.Device = dfg.CPU
			cfg.Strategy = "fusion"
			cfg.TraceKeep = -1
			// A long cooldown keeps worker 0 tripped for the whole test.
			cfg.BreakerCooldown = time.Hour
			cfg.FaultPlanFor = func(worker int) *ocl.FaultPlan {
				if worker == 0 {
					return ocl.NewFaultPlan(1).Add(ocl.FaultRule{
						Op: ocl.FaultKernel, Nth: 0, Times: 1 << 30, Effect: ocl.EffectDeviceLost,
					})
				}
				return nil
			}
			pool, err := NewPool(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			const rounds = 40
			req := chaosReq() // one binding, so a round's requests share a batch key
			failed := 0
			for i := 0; i < rounds; i++ {
				chans := make([]<-chan Response, row.group)
				for k := range chans {
					r := req
					r.Expr = fmt.Sprintf("f = x*2 + %d", k+1)
					chans[k] = pool.EvalAsync(context.Background(), r)
				}
				for _, ch := range chans {
					if r := <-ch; r.Err != nil {
						if !errors.Is(r.Err, ocl.ErrDeviceLost) {
							t.Fatalf("round %d: unexpected error %v", i, r.Err)
						}
						failed++
					}
				}
			}
			// Worker 0 kills at most one request (the one that trips the
			// breaker); everything after reroutes to worker 1.
			if failed > 1 {
				t.Fatalf("%d requests failed, want at most 1 (the breaker-tripping one)", failed)
			}
			st := pool.Stats()
			if want := int64(rounds*row.group - 1); st.Served < want {
				t.Fatalf("served = %d, want >= %d", st.Served, want)
			}
			if row.group > 1 && st.Batches == 0 {
				t.Fatal("no batch ran merged: the batching row rode solo")
			}
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
			if n := pool.LiveBuffers(); n != 0 {
				t.Fatalf("live buffers after close = %d, want 0", n)
			}
		})
	}
}

// TestBatchAndSoloShareOneGate drives hand-built jobs of one member and
// of three through a worker for each way the gate can turn a job away —
// and for the panic behind it — and requires exactly one response per
// member, the same typed error on both shapes for the gate's outcomes,
// and for the panic the one deliberate difference: a lone member gets
// ErrWorkerPanic, a merged run splits and every member is served on the
// rebuilt engine.
func TestBatchAndSoloShareOneGate(t *testing.T) {
	panicOnce := func() func(int) *ocl.FaultPlan {
		var armed atomic.Bool
		armed.Store(true)
		return func(int) *ocl.FaultPlan {
			if armed.CompareAndSwap(true, false) {
				return ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultKernel, Nth: 0, Effect: ocl.EffectPanic})
			}
			return nil
		}
	}
	for _, sc := range []struct {
		name     string
		workers  int
		canceled bool // members' contexts are done before pickup
		tripped  bool // worker 0's breaker is open, cooldown an hour
		panics   bool // the first engine panics on its first kernel
		wantErr  error
		check    func(t *testing.T, members int, st Stats)
	}{
		{name: "expired in queue", workers: 1, canceled: true, wantErr: ErrQueueTimeout,
			check: func(t *testing.T, members int, st Stats) {
				if st.Expired != int64(members) || st.Served+st.Failed != 0 {
					t.Fatalf("stats %+v, want %d expired and nothing run", st, members)
				}
			}},
		{name: "breaker open, rerouted", workers: 2, tripped: true,
			check: func(t *testing.T, members int, st Stats) {
				if st.Rerouted == 0 || st.Served != int64(members) || st.Failed != 0 {
					t.Fatalf("stats %+v, want a reroute and %d served", st, members)
				}
			}},
		{name: "breaker open, nowhere to go", workers: 1, tripped: true, wantErr: ErrWorkerUnavailable,
			check: func(t *testing.T, members int, st Stats) {
				if st.Rerouted == 0 || st.Failed != int64(members) || st.Served != 0 {
					t.Fatalf("stats %+v, want bounces and then %d failed", st, members)
				}
			}},
		{name: "panic", workers: 1, panics: true,
			check: func(t *testing.T, members int, st Stats) {
				if st.Restarts != 1 {
					t.Fatalf("restarts = %d, want 1", st.Restarts)
				}
				if members == 1 && (st.Failed != 1 || st.Served != 0 || st.BatchSplits != 0) {
					t.Fatalf("lone member: stats %+v, want 1 failed", st)
				}
				if members > 1 && (st.BatchSplits != 1 || st.Served != int64(members) || st.Failed != 0) {
					t.Fatalf("merged run: stats %+v, want one split and %d served", st, members)
				}
			}},
	} {
		for _, members := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%d", sc.name, members), func(t *testing.T) {
				cfg := Config{Workers: sc.workers, TraceKeep: -1, BreakerCooldown: time.Hour}
				if sc.panics {
					cfg.FaultPlanFor = panicOnce()
				}
				p, err := newPool(cfg, nil) // workers start once the job is placed
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()

				j := &job{}
				flush := time.Now()
				for k := 0; k < members; k++ {
					ctx, cancel := context.WithCancel(context.Background())
					if sc.canceled {
						cancel()
					}
					req := chaosReq()
					req.Expr = fmt.Sprintf("f = x*2 + %d", k+1)
					m := &member{req: req, ctx: ctx, cancel: cancel, enqueued: flush, resp: make(chan Response, 1)}
					if members > 1 {
						m.formed = flush
					}
					j.members = append(j.members, m)
				}
				all := append([]*member(nil), j.members...) // the gate trims j.members in place
				if sc.tripped {
					// Worker 0's breaker opens and its own gate turns the job
					// away, before any worker could have drawn it first.
					p.note(p.ws[0], evLost, time.Now())
					p.run(p.ws[0], j)
				} else {
					p.queue <- j
				}
				p.startWorkers()

				wantErr := sc.wantErr
				if sc.panics && members == 1 {
					wantErr = ErrWorkerPanic
				}
				for k, m := range all {
					r := <-m.resp
					if wantErr == nil && (r.Err != nil || len(r.Result.Data) != m.req.N) {
						t.Fatalf("member %d: err %v, want a result", k, r.Err)
					}
					if wantErr != nil && !errors.Is(r.Err, wantErr) {
						t.Fatalf("member %d: err %v, want %v", k, r.Err, wantErr)
					}
				}
				if err := p.Close(); err != nil { // the workers are gone: nobody can still reply
					t.Fatal(err)
				}
				for k, m := range all {
					if len(m.resp) != 0 {
						t.Fatalf("member %d answered twice", k)
					}
				}
				sc.check(t, members, p.Stats())
				if n := p.LiveBuffers(); n != 0 {
					t.Fatalf("live buffers after close = %d, want 0", n)
				}
			})
		}
	}
}

// TestMergedTripMovesBreakerOnce runs a merged job on a one-worker pool
// whose first kernel launches fail, and requires one trip that leaves
// the breaker open, whether a device loss opened it or a transient fault
// that was the threshold-th in a row. On a lost device the recovery
// ladder's vm rung answers the merged run itself, with no split. The
// transient fault outlasts the engine's retries (3), so the merged run
// fails and splits; its members still run alone (they were admitted
// with the job) and are answered, but their outcomes cannot move the
// open breaker.
func TestMergedTripMovesBreakerOnce(t *testing.T) {
	for _, sc := range []struct {
		name    string
		members int
		effect  ocl.FaultEffect
		times   int // consecutive kernel launches that fail
		prior   int // consecutive device faults counted before the job
		splits  int64
	}{
		{"lost/2", 2, ocl.EffectDeviceLost, 1, 0, 0},
		{"lost/4", 4, ocl.EffectDeviceLost, 1, 0, 0},
		{"threshold/2", 2, ocl.EffectError, 4, breakerThreshold - 1, 1},
		{"threshold/4", 4, ocl.EffectError, 4, breakerThreshold - 1, 1},
	} {
		t.Run(sc.name, func(t *testing.T) {
			p, err := newPool(Config{
				Workers: 1, Device: dfg.CPU, Strategy: "fusion", TraceKeep: -1, BreakerCooldown: time.Hour,
				FaultPlanFor: func(int) *ocl.FaultPlan {
					return ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultKernel, Nth: 0, Times: sc.times, Effect: sc.effect})
				},
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ws := p.ws[0]
			for i := 0; i < sc.prior; i++ {
				p.note(ws, evFailure, time.Now())
			}
			j := &job{}
			flush := time.Now()
			for k := 0; k < sc.members; k++ {
				req := chaosReq()
				req.Expr = fmt.Sprintf("f = x*2 + %d", k+1)
				j.members = append(j.members, &member{req: req, ctx: context.Background(), cancel: func() {},
					enqueued: flush, formed: flush, resp: make(chan Response, 1)})
			}
			members := append([]*member(nil), j.members...)
			p.run(ws, j)
			for k, m := range members {
				if r := <-m.resp; r.Err != nil {
					t.Fatalf("member %d: %v, want an answer", k, r.Err)
				}
			}
			if st := p.Stats(); st.BatchSplits != sc.splits {
				t.Fatalf("batch splits = %d, want %d", st.BatchSplits, sc.splits)
			}
			if ws.br.trips != 1 || ws.br.state != breakerOpen {
				t.Fatalf("breaker %v after %d trips, want open after 1", ws.br.state, ws.br.trips)
			}
			if got := p.BreakerStates()[0]; got != "open" {
				t.Fatalf("published breaker state %q, want open", got)
			}
			p.startWorkers()
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if n := p.LiveBuffers(); n != 0 {
				t.Fatalf("live buffers after close = %d, want 0", n)
			}
		})
	}
}

// TestRerouteBoundIsMaxHops: on a pool where every breaker is open, a
// job bounces between the workers exactly 4*Workers+4 times, then its
// member fails ErrWorkerUnavailable.
func TestRerouteBoundIsMaxHops(t *testing.T) {
	clock := &fakeClock{t: replayEpoch}
	p, err := newPool(Config{Workers: 2, TraceKeep: -1, BreakerCooldown: time.Hour}, clock)
	if err != nil {
		t.Fatal(err)
	}
	clock.tick = p.tick
	for _, ws := range p.ws {
		p.note(ws, evLost, clock.now())
	}
	m := &member{req: chaosReq(), ctx: context.Background(), cancel: func() {}, enqueued: clock.now(), resp: make(chan Response, 1)}
	j := &job{members: []*member{m}}
	p.queue <- j
	for k := 0; len(p.queue) > 0; k++ {
		p.run(p.ws[k%len(p.ws)], <-p.queue)
	}
	if j.hops != 12 || p.Stats().Rerouted != 12 {
		t.Fatalf("job hopped %d times (%d reroutes), want 4*2+4 = 12", j.hops, p.Stats().Rerouted)
	}
	if r := <-m.resp; !errors.Is(r.Err, ErrWorkerUnavailable) {
		t.Fatalf("err %v, want ErrWorkerUnavailable", r.Err)
	}
}

// TestBreakerTable walks every state through every event and compares
// the result with the table on breaker.on.
func TestBreakerTable(t *testing.T) {
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	const cooldown = time.Second
	closed := breaker{}
	halfOpen := breaker{state: breakerHalfOpen, openedAt: t0, trips: 1}
	open := breaker{state: breakerOpen, openedAt: t0, trips: 1}
	cooling, cooled := t0.Add(cooldown/2), t0.Add(cooldown)
	for _, c := range []struct {
		name string
		from breaker
		ev   breakerEvent
		at   time.Time
		want breakerState
		trip bool
	}{
		{"closed/allow", closed, evAllow, cooled, breakerClosed, false},
		{"closed/success", closed, evSuccess, cooled, breakerClosed, false},
		{"closed/failure", closed, evFailure, cooled, breakerClosed, false},
		{"closed/failure at the threshold", breaker{fails: breakerThreshold - 1}, evFailure, cooled, breakerOpen, true},
		{"closed/lost", closed, evLost, cooled, breakerOpen, true},
		{"closed/reset", closed, evReset, cooled, breakerClosed, false},
		{"half-open/allow", halfOpen, evAllow, cooled, breakerHalfOpen, false},
		{"half-open/success", halfOpen, evSuccess, cooled, breakerClosed, false},
		{"half-open/failure", halfOpen, evFailure, cooled, breakerOpen, true},
		{"half-open/lost", halfOpen, evLost, cooled, breakerOpen, true},
		{"half-open/reset", halfOpen, evReset, cooled, breakerClosed, false},
		{"open/allow cooling", open, evAllow, cooling, breakerOpen, false},
		{"open/allow cooled", open, evAllow, cooled, breakerHalfOpen, false},
		{"open/success", open, evSuccess, cooled, breakerOpen, false},
		{"open/failure", open, evFailure, cooled, breakerOpen, false},
		{"open/lost", open, evLost, cooled, breakerOpen, false},
		{"open/reset", open, evReset, cooled, breakerClosed, false},
	} {
		got := c.from.on(c.ev, c.at, cooldown)
		if got.state != c.want || (got.trips > c.from.trips) != c.trip {
			t.Errorf("%s: %+v, want %v (trip %v)", c.name, got, c.want, c.trip)
		}
		if c.trip && !got.openedAt.Equal(c.at) || !c.trip && !got.openedAt.Equal(c.from.openedAt) && c.ev != evReset {
			t.Errorf("%s: opened at %v, want the cooldown restarted exactly on a trip", c.name, got.openedAt)
		}
	}
	if b := halfOpen.on(evFailure, cooled, cooldown); b.probes != 1 {
		t.Errorf("a failed probe counts %d probes, want 1", b.probes)
	}
}
