package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"dfg"
	"dfg/internal/obs"
	"dfg/internal/ocl"
)

// worker drains the queue until it is closed, running each job on its
// private engine, then closes every handle it holds: closing the queue
// is what ends the loop, so every job accepted before Close is served.
//
// Every job takes one road (run): the gate (admit), one attempt at all
// its members together, and — only when a merged attempt failed — one
// attempt per member. Evaluations run through the worker's bounded
// cache of open prepared handles, looked up by variant and member texts
// before anything is parsed, behind one panic shield (eval).
//
// A lone member records a "request" trace rooted at enqueue time, a
// merged run one "batch" trace with a "member" child each. Its stages
// partition it: the forming window and queue wait, ending at the
// instants serve stamped, then the engine's stages from pickup on
// (compile and plan on a handle miss only; the root carries
// handle=hit|miss), so a trace accounts for what the client actually
// waited.
func (p *Pool) worker(ws *workerState) {
	defer ws.closeAll()
	for j := range p.queue {
		p.run(ws, j)
	}
}

// workerState is one worker's private state: its engine, its circuit
// breaker, and its bounded cache of open prepared handles. Only the
// worker that owns it touches any of it.
type workerState struct {
	id      int
	eng     *dfg.Engine
	br      breaker
	handles map[handleKey]*dfg.Prepared
	defGen  uint64 // Pool.defGen when the handles were last flushed
	// call is the running attempt's context — its deadline, trace root
	// and queue wait — passed by address, so attaching allocates nothing.
	call obs.Carrier
}

// handleKey keys a worker's open handles by the parsed variant (every
// spelling of one shares a handle) and the ordered member texts:
// ordered, because a handle of several texts answers positionally;
// texts, not fingerprints, because a lookup must not parse.
type handleKey struct {
	v     variant
	n     int    // texts
	texts string // the one text as is, several Go-quoted: no text spells a list
}

// closeAll closes every open prepared handle, draining the engine's
// buffer arena.
func (ws *workerState) closeAll() {
	for _, pr := range ws.handles {
		pr.Close()
	}
	clear(ws.handles)
}

// restartWorker discards the worker's (possibly poisoned) engine and its
// prepared handles, builds a replacement on a fresh device, and
// publishes it for the metric scrapers.
func (p *Pool) restartWorker(ws *workerState) {
	ws.closeAll()
	fresh, err := p.newEngine(ws.id)
	if err != nil {
		// Device construction is deterministic; failing here means the
		// pool config itself is bad, which NewPool would have caught.
		// Keep limping on the old engine rather than killing the worker.
		fmt.Fprintf(os.Stderr, "serve: worker %d: engine rebuild failed: %v\n", ws.id, err)
		return
	}
	ws.eng = fresh
	p.engines[ws.id].Store(fresh)
	p.note(ws, evReset, time.Time{})
	p.restarts[ws.id].Add(1)
}

// run takes one job through the worker. The engine's recovery ladder
// answers a merged run's transient, capacity and device-lost faults as
// it does a lone one's; a merged attempt that still fails answers
// nobody, and every member re-runs alone, so a member-specific failure
// costs only that member its result. The re-runs were admitted with the
// job: they run even when the merged failure opened the breaker, whose
// open state their outcomes cannot move.
func (p *Pool) run(ws *workerState, j *job) {
	pickup := p.clock.now()
	// Handles prepared before the latest Define may hold its old body.
	// The generation is read before anything is prepared under it, so a
	// handle is never newer than the generation it is filed under.
	if g := p.defGen.Load(); g != ws.defGen {
		ws.closeAll()
		ws.defGen = g
	}
	ok, probe := p.admit(ws, j, pickup)
	if !ok || p.attempt(ws, j.members, j.hops, pickup, probe) {
		return
	}
	pickup = p.clock.now()
	for i := range j.members {
		p.attempt(ws, j.members[i:i+1], j.hops, pickup, false)
	}
}

// admit is the gate in front of the device. It leaves the job's live
// members in j.members and reports whether they may run here, and
// whether as the breaker's half-open probe.
func (p *Pool) admit(ws *workerState, j *job, pickup time.Time) (ok, probe bool) {
	live := j.members[:0]
	for _, m := range j.members {
		// Every dequeued member's wait counts, expired ones too, or under
		// overload the quantiles would see only survivors. The forming
		// window is observed separately, at flush.
		p.waitHist.Observe(pickup.Sub(m.queuedAt()))
		if err := m.ctx.Err(); err != nil {
			// Expired (or canceled) while queued: fails alone, without
			// touching the device; the rest of the job still runs.
			p.expired.Add(1)
			m.reply(Response{Worker: ws.id, Wait: pickup.Sub(m.enqueued), Err: fmt.Errorf("%w: %v", ErrQueueTimeout, err)})
			continue
		}
		live = append(live, m)
	}
	j.members = live
	if len(live) == 0 {
		return false, false
	}
	p.note(ws, evAllow, pickup)
	switch ws.br.state {
	case breakerClosed:
		return true, false
	case breakerHalfOpen:
		// Health probe: heal a latched device loss first, simulating the
		// driver reset the cooldown stood in for.
		ws.eng.Heal()
		return true, true
	}
	// Tripped device, still cooling: push the job back for a healthy
	// peer, after a hold (longer each hop) that parks this worker so a
	// blocked peer wins the hand-off. A job that cannot be requeued (queue
	// full, pool closing, maxHops reached) fails ErrWorkerUnavailable.
	p.clock.sleep(min(time.Duration(j.hops+1)*200*time.Microsecond, 2*time.Millisecond))
	if p.reroute(j) {
		p.rerouted.Add(1)
		return false, false
	}
	for _, m := range live {
		p.failed.Add(1)
		m.reply(Response{Worker: ws.id, Wait: pickup.Sub(m.enqueued), Err: fmt.Errorf("%w: worker %d breaker open", ErrWorkerUnavailable, ws.id)})
	}
	return false, false
}

// attempt evaluates members as one run — a lone member alone, several
// as one merged super-network whose shared subtrees execute once — and
// answers each member, in order, from its own position of the result.
// A merged run that fails answers nobody and reports false (the batch
// splits); every other attempt answers every member and reports true.
func (p *Pool) attempt(ws *workerState, members []*member, hops int, pickup time.Time, probe bool) bool {
	merged := len(members) > 1
	m0 := members[0] // members share N, variant, inputs (batchKey) and flush
	root := p.traceRoot(ws, members, hops, pickup, probe)
	ws.call = obs.Carrier{Context: m0.ctx, Span: root, Wait: pickup.Sub(m0.queuedAt())}
	if p.wall { // the engine's run begins at pickup only if both read one clock
		ws.call.Began = pickup
	}
	if merged {
		ws.call.Context = context.Background() // no member's deadline governs the shared run
	}
	res, shared, err := p.eval(&ws.call, ws, members)
	// A run lasts from pickup to the clock reading that ended the
	// engine's run (the root's Stop), or on a pool clock the library does
	// not read, or untraced, to that clock's now. Finishing publishes the
	// trace before any breaker bookkeeping, so a dump triggered by this
	// very run includes its own span tree.
	var run time.Duration
	if root == nil || !p.wall {
		run = p.clock.now().Sub(pickup)
	}
	if root != nil {
		end := root.Stop()
		if p.wall {
			run = end.Sub(pickup)
		}
		for _, c := range root.Children {
			if c.Name == "member" {
				c.End = end
			}
		}
		switch {
		case err != nil && merged:
			root.SetAttr("error", err.Error()).SetAttr("degraded", "split-to-solo")
		case err != nil:
			root.SetAttr("error", err.Error())
		case merged:
			root.SetAttr("shared", strconv.Itoa(shared))
		}
		root.Finish()
	}
	if err != nil && merged {
		p.batchSplits.Add(1)
		p.settle(ws, err, pickup)
		return false
	}
	p.busy[ws.id].Add(int64(run))
	if err == nil {
		p.acc.Add(res.Profile, res.PeakDeviceBytes)
	}
	if merged {
		p.batches.Add(1)
		p.batchSizeHist.Observe(time.Duration(len(members)) * time.Microsecond)
		p.batchShared.Add(int64(shared))
	}
	p.settle(ws, err, pickup)
	for i, m := range members {
		r := Response{Err: err, Worker: ws.id, Wait: pickup.Sub(m.enqueued), Run: run}
		if err != nil {
			p.failed.Add(1)
		} else {
			p.served.Add(1)
			r.Result = res
			if merged {
				r.Result = res.Members[i]
			}
		}
		p.runHist.Observe(run)
		m.reply(r)
	}
	return true
}

// traceRoot opens the attempt's trace — "request" for a lone member,
// "batch" with a "member" child each for a merged run — or returns nil
// with tracing off. The root starts where the members' wait began
// (enqueue for a lone member, the flush for a batch), and its first
// stages are a lone member's forming window and the queue wait, which
// ends at pickup, so a trace covers them too.
func (p *Pool) traceRoot(ws *workerState, members []*member, hops int, pickup time.Time, probe bool) *obs.Span {
	m0 := members[0]
	merged := len(members) > 1
	name, start := "request", m0.enqueued
	if merged {
		name, start = "batch", m0.formed
	}
	root := p.tracer.StartAt(name, start)
	if root == nil {
		return nil
	}
	root.SetAttr("worker", strconv.Itoa(ws.id))
	if probe {
		root.SetAttr("breaker", "probe")
	}
	if hops > 0 {
		// The tracer keeps every rerouted request's trace.
		root.SetAttr("rerouted", strconv.Itoa(hops))
	}
	if !merged {
		root.SetAttr("expr", m0.req.Expr)
		if !m0.formed.IsZero() {
			root.Stage("batch-forming", m0.formed)
		}
	} else {
		root.SetAttr("batch", strconv.Itoa(len(members)))
		for _, m := range members {
			sp := root.Child("member")
			sp.Start = m.enqueued
			sp.SetAttr("expr", m.req.Expr)
			if !m.formed.IsZero() {
				sp.Event("batch-forming", "", m.enqueued, m.formed)
			}
		}
	}
	root.Stage("queue-wait", pickup)
	return root
}

// settle feeds one evaluation's outcome to the worker's health
// machinery. A panic replaces the engine. Of the errors only device
// faults reach the breaker — a lost device as evLost, transient or
// unexplained ones as evFailure; a bad expression or exhausted capacity
// says nothing about the device. After replaceAfterProbes failed probes
// in a row the device is replaced.
func (p *Pool) settle(ws *workerState, err error, now time.Time) {
	if errors.Is(err, ErrWorkerPanic) {
		// The device (or a kernel on it) panicked; the engine state is
		// suspect. Dump the recent traces, replace the engine, and keep
		// serving.
		p.DumpFlight("worker-panic")
		p.restartWorker(ws)
		return
	}
	ev := evSuccess
	if err == nil && ws.eng.DeviceLost() {
		// The request was rescued by the recovery ladder's host-VM rung,
		// but the device underneath is still lost: trip the breaker
		// anyway so the cooldown/probe machinery heals (or replaces) it
		// instead of every request limping through the VM forever.
		ev = evLost
	} else if err != nil {
		// Declared here, not at the top: errors.As moves the target to the
		// heap, and only failures should pay for it.
		var fe *ocl.FaultError
		if !errors.As(err, &fe) {
			return
		}
		switch ocl.Classify(err) {
		case ocl.ClassDeviceLost:
			ev = evLost
		case ocl.ClassTransient, ocl.ClassPermanent:
			ev = evFailure
		default:
			return
		}
	}
	trips := ws.br.trips
	p.note(ws, ev, now)
	if ws.br.trips != trips {
		// The failure that opens a breaker is exactly the postmortem
		// moment: dump while the failing request's span tree is still in
		// the tracer's recent ring.
		p.DumpFlight("breaker-trip")
	}
	if ws.br.probes >= replaceAfterProbes {
		p.restartWorker(ws)
	}
}

// note moves the worker's breaker by ev and publishes the new position
// for scrapes.
func (p *Pool) note(ws *workerState, ev breakerEvent, now time.Time) {
	ws.br = ws.br.on(ev, now, p.cfg.BreakerCooldown)
	p.breakers[ws.id].Store(ws.br.packed())
}

// eval evaluates the members' texts, in order, through the worker's
// handle cache behind the panic shield: a panic below becomes a typed
// ErrWorkerPanic (buffer releases are deferred, so the arena still
// drains) instead of killing the worker. The first member carries the
// shape they share; ctx carries the attempt's deadline (a lone
// request's stops the run at the next kernel launch), its trace root,
// its start and its queue wait, which land on the perf record. shared
// is the handle's merge saving.
func (p *Pool) eval(ctx context.Context, ws *workerState, members []*member) (res *dfg.Result, shared int, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: worker %d: %v", ErrWorkerPanic, ws.id, r)
		}
	}()
	pr, err := p.open(ctx, ws, members)
	if err != nil {
		return nil, 0, err
	}
	m := members[0]
	res, err = pr.EvalContext(ctx, m.req.N, m.req.Inputs)
	return res, pr.Shared(), err
}

// open returns the worker's handle for the members' texts under their
// variant. A hit is a map lookup on the lone member's text as it is
// (several are quoted into the key). A miss copies the texts out,
// derives the variant's engine view (it shares the worker's device and
// arena), prepares them under ctx's trace root and files the handle,
// closing an arbitrary one at the bound — its plan stays in the shared
// cache.
func (p *Pool) open(ctx context.Context, ws *workerState, members []*member) (*dfg.Prepared, error) {
	root, _ := obs.FromContext(ctx)
	m := members[0]
	key := handleKey{m.v, len(members), m.req.Expr}
	var texts []string
	if len(members) > 1 {
		texts = memberTexts(members)
		key.texts = fmt.Sprintf("%q", texts)
	}
	if pr, ok := ws.handles[key]; ok {
		p.handleHits.Add(1)
		root.SetAttr("handle", "hit")
		return pr, nil
	}
	p.handleMisses.Add(1)
	root.SetAttr("handle", "miss")
	if texts == nil {
		texts = memberTexts(members)
	}
	pr, err := ws.eng.View(m.v.lvl, m.v.strat).PrepareContext(ctx, texts...)
	if err != nil {
		return nil, err
	}
	if len(ws.handles) >= maxPreparedPerWorker {
		for k, old := range ws.handles {
			old.Close()
			delete(ws.handles, k)
			break
		}
	}
	ws.handles[key] = pr
	return pr, nil
}

// memberTexts returns the members' texts in order.
func memberTexts(members []*member) []string {
	texts := make([]string, len(members))
	for i, m := range members {
		texts[i] = m.req.Expr
	}
	return texts
}
