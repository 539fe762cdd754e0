package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"dfg"
	"dfg/internal/ocl"
)

// The replay harness drives a pool without worker goroutines: one seeded
// PRNG interleaves arrivals, window ticks, cancellations, Defines, device
// faults, worker runs (Pool.run, synchronously, on the pool's real
// engines) and Close, on a fake clock. Every step runs to completion
// before the next starts, so a seed names one interleaving exactly, and
// a failure is reported as the seed that reproduces it:
//
//	go test ./internal/serve -run 'TestReplay/seed=17$' -v
//
// After every step the harness checks:
//   - exactly one response per request;
//   - positional demux: each answer's bits equal its own solo run;
//   - no answer computed under a definition older than the one
//     installed before its request was enqueued;
//   - only legal breaker transitions (checkBreakers);
//   - no request outlives its deadline by more than one batch window:
//     none waits in the former past it, none succeeds after it;
//
// and once the pool is closed and drained, LiveBuffers() == 0.

// replaySeeds is the tier-1 seed set.
const replaySeeds = 24

const (
	replayN      = 32
	replayWindow = time.Millisecond // fake time
	// replayStepTimeout bounds one step on the wall clock. A step that
	// blocks is a bug: a second response to one request blocks on its
	// full channel.
	replayStepTimeout = 2 * time.Second
)

// replayExprs are the requests' texts: two read the redefined name
// "scale", the last cannot compile, and every pair computes different
// bits.
var replayExprs = []string{
	"r = u + 1",
	"r = scale * 2",
	"r = scale + v",
	"r = u * v - w",
	"r = sqrt(u*u + v*v)",
	"r = nosuch + 1",
}

// replayEpoch is where the fake clock starts; the step log shows time
// since it.
var replayEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// scaleBody is the body of "scale" at definition version ver.
func scaleBody(ver int) string { return fmt.Sprintf("u * %d", ver+2) }

func TestReplay(t *testing.T) {
	refs := newReplayRefs()
	start := time.Now()
	for seed := int64(1); seed <= replaySeeds; seed++ {
		if !t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runReplay(t, seed, refs) }) {
			t.Logf("first failing seed %d, %v into the sweep", seed, time.Since(start).Round(time.Millisecond))
			return
		}
	}
}

// fakeClock is the harness's clock: time moves only in advance (and in
// the pool's sleeps), which fires due timers in time order — the pool's
// one wake and the requests' deadlines.
type fakeClock struct {
	t      time.Time
	tick   func()
	timers []fakeTimer
}

type fakeTimer struct {
	at   time.Time
	fire func()
	pool bool // the pool's wake
}

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.advance(d) }

func (c *fakeClock) wake(d time.Duration) {
	c.timers = slices.DeleteFunc(c.timers, func(tm fakeTimer) bool { return tm.pool })
	c.timers = append(c.timers, fakeTimer{at: c.t.Add(d), fire: c.tick, pool: true})
}

func (c *fakeClock) advance(d time.Duration) {
	end := c.t.Add(d)
	for len(c.timers) > 0 {
		k := 0
		for i, tm := range c.timers {
			if tm.at.Before(c.timers[k].at) {
				k = i
			}
		}
		tm := c.timers[k]
		if tm.at.After(end) {
			break
		}
		c.timers = slices.Delete(c.timers, k, k+1)
		if tm.at.After(c.t) {
			c.t = tm.at
		}
		tm.fire()
	}
	c.t = end
}

// replayReq is one request the harness submitted, and what it got.
type replayReq struct {
	id, expr, binding int
	ver               int       // definition version installed before enqueue
	deadline          time.Time // zero: none
	cancel            context.CancelFunc
	ch                <-chan Response
	answered          bool
	resp              Response
	at                time.Time // when answered (fake)
}

type replay struct {
	t      *testing.T
	seed   int64
	rng    *rand.Rand
	clock  *fakeClock
	p      *Pool
	plans  []*ocl.FaultPlan
	inputs []map[string][]float32
	refs   *replayRefs
	reqs   []*replayReq
	byCh   map[<-chan Response]*replayReq
	ver    int
	closed bool
	log    []string
	broken string // a breaker move checkBreakers refused, for check to report
}

func runReplay(t *testing.T, seed int64, refs *replayRefs) {
	rng := rand.New(rand.NewSource(seed))
	r := &replay{t: t, seed: seed, rng: rng, refs: refs, byCh: map[<-chan Response]*replayReq{}, log: []string{"setup"}}
	r.clock = &fakeClock{t: replayEpoch}
	workers := 1 + rng.Intn(3)
	for w := 0; w < workers; w++ {
		r.plans = append(r.plans, ocl.NewFaultPlan(seed))
	}
	for b := 0; b < 2; b++ {
		r.inputs = append(r.inputs, replayInputs(b))
	}
	cfg := Config{
		Workers:         workers,
		QueueDepth:      1 << 12, // the harness never lets a send wait
		Device:          dfg.CPU,
		Strategy:        "fusion",
		TraceKeep:       -int(seed % 2), // odd seeds run untraced
		BreakerCooldown: 3 * replayWindow,
		FaultPlanFor:    func(w int) *ocl.FaultPlan { return r.plans[w] },
	}
	if seed%4 != 0 {
		cfg.BatchWindow, cfg.BatchMax = replayWindow, 2+rng.Intn(3)
	}
	p, err := newPool(cfg, r.clock)
	if err != nil {
		t.Fatal(err)
	}
	r.p, r.clock.tick = p, p.tick
	r.logf("workers=%d window=%v max=%d", workers, cfg.BatchWindow, cfg.BatchMax)
	if err := p.Define("scale", scaleBody(0)); err != nil {
		t.Fatal(err)
	}

	// Close lands somewhere in the last quarter: arrivals after it are
	// refused, and the queue it leaves is drained below.
	steps := 150 + rng.Intn(100)
	closeAt := steps - rng.Intn(steps/4)
	for i := 0; i < steps; i++ {
		if i == closeAt {
			r.do("close", r.close)
		}
		r.step()
	}
	r.do("close", r.close)
	for {
		drained := false
		r.do("drain", func() { drained = !r.work() })
		if drained {
			break
		}
	}
	r.do("exit", func() {
		for _, ws := range p.ws {
			p.worker(ws) // the queue is closed and empty: the worker exits
		}
	})
	for _, q := range r.reqs {
		if !q.answered {
			r.fail("request %d (%q) was never answered", q.id, replayExprs[q.expr])
		}
	}
	if n := p.LiveBuffers(); n != 0 {
		r.fail("%d device buffers live after Close and drain", n)
	}
}

// step draws one event and runs it.
func (r *replay) step() {
	switch k := r.rng.Intn(100); {
	case k < 35:
		r.do("arrive", r.arrive)
	case k < 50:
		d := time.Duration(r.rng.Int63n(int64(replayWindow)))
		r.do("advance "+d.String(), func() { r.clock.advance(d) })
	case k < 54:
		r.do("cancel", r.cancelOne)
	case k < 58:
		r.do("define", r.define)
	case k < 64:
		r.do("fault", r.fault)
	default:
		r.do("work", func() { r.work() })
	}
}

func (r *replay) arrive() {
	// The text that cannot compile comes up half as often as the others.
	q := &replayReq{id: len(r.reqs), expr: r.rng.Intn(2*len(replayExprs)-1) / 2, binding: r.rng.Intn(len(r.inputs)), ver: r.ver}
	ctx, cancel := context.WithCancel(context.Background())
	q.cancel = cancel
	if r.rng.Intn(3) == 0 {
		q.deadline = r.clock.now().Add(time.Duration(r.rng.Int63n(int64(4 * replayWindow))))
		r.clock.timers = append(r.clock.timers, fakeTimer{at: q.deadline, fire: cancel})
	}
	req := Request{Expr: replayExprs[q.expr], N: replayN, Inputs: r.inputs[q.binding]}
	if r.rng.Intn(6) == 0 {
		req.Strategy = "vm"
	}
	q.ch = r.p.EvalAsync(ctx, req)
	r.reqs = append(r.reqs, q)
	r.byCh[q.ch] = q
	r.logf("request %d: %q binding %d strategy %q", q.id, req.Expr, q.binding, req.Strategy)
	if !q.deadline.IsZero() {
		r.logf("deadline %v", since(q.deadline))
	}
}

func (r *replay) cancelOne() {
	if len(r.reqs) > 0 {
		q := r.reqs[r.rng.Intn(len(r.reqs))]
		q.cancel()
		r.logf("canceled request %d", q.id)
	}
}

func (r *replay) define() {
	r.ver++
	if err := r.p.Define("scale", scaleBody(r.ver)); err != nil {
		panic(err)
	}
	r.logf("scale = %s (version %d)", scaleBody(r.ver), r.ver)
}

func (r *replay) fault() {
	w := r.rng.Intn(len(r.plans))
	effect := ocl.EffectError
	switch k := r.rng.Intn(20); {
	case k < 7:
		effect = ocl.EffectDeviceLost
	case k < 10:
		effect = ocl.EffectPanic
	}
	rule := ocl.FaultRule{Op: ocl.FaultOp(r.rng.Intn(int(ocl.FaultAny) + 1)), Nth: 0, Times: 1 + r.rng.Intn(2), Effect: effect}
	r.plans[w].Add(rule)
	r.logf("worker %d: next %d %v op(s) fail with %v", w, rule.Times, rule.Op, rule.Effect)
}

// work runs the next queued job on a random worker and reports whether
// there was one.
func (r *replay) work() bool {
	var j *job
	select {
	case j = <-r.p.queue:
	default:
	}
	if j == nil {
		return false
	}
	ws := r.p.ws[r.rng.Intn(len(r.p.ws))]
	r.logf("worker %d runs %d member(s), hop %d, breaker %v", ws.id, len(j.members), j.hops, ws.br.state)
	before := make([]breaker, len(r.p.ws))
	restarts := make([]int64, len(r.p.ws))
	for i, w := range r.p.ws {
		before[i], restarts[i] = w.br, r.p.restarts[i].Load()
	}
	now := r.clock.now()
	r.p.run(ws, j)
	r.broken = r.checkBreakers(before, restarts, now)
	return true
}

func (r *replay) close() {
	if !r.closed {
		r.closed = true
		r.p.Close()
	}
}

// do runs one step on its own goroutine, bounded by the step timeout,
// then checks the invariants.
func (r *replay) do(name string, f func()) {
	r.t.Helper()
	r.log = append(r.log, fmt.Sprintf("[%v] %s", since(r.clock.now()), name))
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case v := <-done:
		if v != nil {
			r.fail("step %q panicked: %v", name, v)
		}
	case <-time.After(replayStepTimeout):
		r.fail("step %q blocked for %v (a second response to one request blocks on its full channel)", name, replayStepTimeout)
	}
	r.check()
}

func (r *replay) logf(format string, args ...any) {
	r.log[len(r.log)-1] += ": " + fmt.Sprintf(format, args...)
}

// fail reports the seed and the steps that led to the failure.
func (r *replay) fail(format string, args ...any) {
	r.t.Helper()
	steps := r.log[max(0, len(r.log)-25):]
	r.t.Fatalf("replay seed %d, step %d: %s\nlast steps:\n  %s", r.seed, len(r.log), fmt.Sprintf(format, args...), strings.Join(steps, "\n  "))
}

// check runs the per-step invariants.
func (r *replay) check() {
	r.t.Helper()
	if r.broken != "" {
		r.fail("%s", r.broken)
	}
	now := r.clock.now()
	for _, q := range r.reqs {
		select {
		case resp := <-q.ch:
			if q.answered {
				r.fail("request %d answered twice: %v, then %v", q.id, q.resp.Err, resp.Err)
			}
			q.answered, q.resp, q.at = true, resp, now
			r.checkAnswer(q)
		default:
		}
	}
	for _, b := range r.p.former.forming {
		for _, m := range b.members {
			q := r.byCh[m.resp]
			if now.After(m.enqueued.Add(replayWindow)) || (!q.deadline.IsZero() && now.After(q.deadline.Add(replayWindow))) {
				r.fail("request %d still forming at %v: enqueued at %v, deadline %v, window %v", q.id, since(now), since(m.enqueued), since(q.deadline), replayWindow)
			}
		}
	}
	for i, ws := range r.p.ws {
		if st, trips := unpack(r.p.breakers[i].Load()); st != ws.br.state || trips != ws.br.trips {
			r.fail("worker %d publishes %v/%d trips, holds %v/%d", i, st, trips, ws.br.state, ws.br.trips)
		}
	}
}

// checkAnswer checks one response: a success carries the bits of its own
// expression, under a definition no older than its enqueue, in time.
func (r *replay) checkAnswer(q *replayReq) {
	r.t.Helper()
	if q.resp.Err != nil {
		return // faults, expiry, cancellation and the bad text fail alone
	}
	if !q.deadline.IsZero() && q.at.After(q.deadline.Add(replayWindow)) {
		r.fail("request %d succeeded at %v, past its deadline %v by more than a window", q.id, since(q.at), since(q.deadline))
	}
	got := q.resp.Result.Data
	for ver := r.ver; ver >= 0; ver-- {
		if sameBits(got, r.refs.get(q.expr, q.binding, ver)) {
			if ver < q.ver {
				r.fail("request %d (%q) computed under definition version %d; version %d was installed before it was enqueued", q.id, replayExprs[q.expr], ver, q.ver)
			}
			return
		}
	}
	for e := range replayExprs {
		if e != q.expr && sameBits(got, r.refs.get(e, q.binding, q.ver)) {
			r.fail("request %d (%q) received the bits of %q: demux slot swapped", q.id, replayExprs[q.expr], replayExprs[e])
		}
	}
	r.fail("request %d (%q) received bits no solo run computes", q.id, replayExprs[q.expr])
}

// checkBreakers holds each worker's breaker, across one job, to the
// legal moves: at most one trip, and a trip ends open, opened now; the
// cooldown restarts only with a trip; an open breaker whose cooldown
// has not passed does not move at all; half-open is entered only from
// open once the cooldown passed. A worker whose device was replaced
// (reset) is exempt for the job. It returns the first illegal move.
func (r *replay) checkBreakers(before []breaker, restarts []int64, now time.Time) string {
	cooldown := r.p.cfg.BreakerCooldown
	for i, ws := range r.p.ws {
		b0, b1 := before[i], ws.br
		if r.p.restarts[i].Load() != restarts[i] {
			continue
		}
		cooled := !now.Before(b0.openedAt.Add(cooldown))
		var bad string
		switch {
		case b1.trips < b0.trips || b1.trips > b0.trips+1:
			bad = fmt.Sprintf("%d trips in one job", b1.trips-b0.trips)
		case b1.trips > b0.trips && (b1.state != breakerOpen || !b1.openedAt.Equal(now)):
			bad = fmt.Sprintf("tripped, then ended %v", b1.state)
		case b1.trips == b0.trips && !b1.openedAt.Equal(b0.openedAt):
			bad = "cooldown restarted without a trip"
		case b0.state == breakerOpen && !cooled && b1 != b0:
			bad = fmt.Sprintf("moved to %v while cooling", b1.state)
		case b0.state == breakerClosed && b1.state == breakerHalfOpen:
			bad = "closed to half-open"
		}
		if bad != "" {
			return fmt.Sprintf("worker %d breaker %s -> %s: %s", i, showBreaker(b0), showBreaker(b1), bad)
		}
	}
	return ""
}

func showBreaker(b breaker) string {
	return fmt.Sprintf("%v (%d trips, %d fails, %d failed probes, opened at %v)", b.state, b.trips, b.fails, b.probes, since(b.openedAt))
}

// since shows a fake instant as time since replayEpoch; the zero time
// (no deadline, never opened) shows as 0s.
func since(t time.Time) time.Duration {
	if t.IsZero() {
		return 0
	}
	return t.Sub(replayEpoch)
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) || b == nil {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// replayInputs is binding b: u, v, w of replayN elements whose values
// differ between bindings.
func replayInputs(b int) map[string][]float32 {
	in := testInputs(replayN)
	for _, s := range in {
		for i := range s {
			s[i] += float32(10 * b)
		}
	}
	return in
}

// replayRefs computes each (expression, binding, definition version)
// solo on a fresh VM engine, once per test run.
type replayRefs struct {
	engines map[int]*dfg.Engine
	bits    map[[3]int][]float32
}

func newReplayRefs() *replayRefs {
	return &replayRefs{engines: map[int]*dfg.Engine{}, bits: map[[3]int][]float32{}}
}

// get returns the solo bits, or nil for a text that does not evaluate.
func (rr *replayRefs) get(expr, binding, ver int) []float32 {
	key := [3]int{expr, binding, ver}
	if bits, ok := rr.bits[key]; ok {
		return bits
	}
	eng, ok := rr.engines[ver]
	if !ok {
		var err error
		if eng, err = dfg.New(dfg.Config{Strategy: "vm", Opt: "O2"}); err != nil {
			panic(err)
		}
		if err := eng.Define("scale", scaleBody(ver)); err != nil {
			panic(err)
		}
		rr.engines[ver] = eng
	}
	var bits []float32
	if res, err := eng.Eval(replayExprs[expr], replayN, replayInputs(binding)); err == nil {
		bits = res.Data
	}
	rr.bits[key] = bits
	return bits
}
