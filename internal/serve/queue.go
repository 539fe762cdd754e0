package serve

import (
	"context"
	"fmt"
	"time"

	"dfg"
)

// member is one client request on its way through the pool: what was
// asked, its deadline, and the channel that receives its one Response.
type member struct {
	req      Request
	v        variant // req's, parsed (the pool's for an empty field)
	ctx      context.Context
	cancel   context.CancelFunc
	enqueued time.Time
	resp     chan Response
	// formed is when the former flushed the member (zero when batching
	// is off): queue wait starts there, not in the forming window.
	formed time.Time
}

// reply delivers the member's one response and releases its context.
func (m *member) reply(r Response) {
	m.cancel()
	m.resp <- r
}

// queuedAt is when the member entered the bounded queue: its flush out
// of the forming window, or its submission when batching is off.
func (m *member) queuedAt() time.Time {
	if !m.formed.IsZero() {
		return m.formed
	}
	return m.enqueued
}

// job is what the queue carries: an ordered list of members evaluated
// together — one, or several sharing a batchKey.
type job struct {
	members []*member
	hops    int // breaker reroutes so far, bounded by maxHops
}

// lone is a request submitted with batching off: its member, the job
// that carries it alone and the job's member list, in one allocation.
type lone struct {
	m   member
	j   job
	one [1]*member
}

// EvalAsync submits a request and returns a buffered channel that will
// receive exactly one Response. The request's deadline (Timeout, the
// pool default, or ctx — whichever ends first) covers queue wait; once a
// worker starts executing, the evaluation runs to completion.
func (p *Pool) EvalAsync(ctx context.Context, req Request) <-chan Response {
	resp := make(chan Response, 1)
	v, err := parseVariant(req, p.v)
	if err != nil {
		p.failed.Add(1)
		resp <- Response{Worker: -1, Err: err}
		return resp
	}
	if ctx == nil {
		ctx = context.Background()
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = p.cfg.DefaultTimeout
	}
	var cancel context.CancelFunc
	switch {
	case timeout > 0:
		ctx, cancel = context.WithTimeout(ctx, timeout)
	case ctx.Done() == nil:
		// Nothing can end the request early, so there is no context of
		// its own to derive and release.
		cancel = func() {}
	default:
		ctx, cancel = context.WithCancel(ctx)
	}

	// Enqueue under the read lock: Close takes the write lock to set
	// closed, so every member it does not reject is in the queue, in a
	// waiting sender, or in the former by the time its sweep runs.
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.closed {
		cancel()
		p.rejected.Add(1)
		resp <- Response{Worker: -1, Err: ErrPoolClosed}
		return resp
	}
	m := member{req: req, v: v, ctx: ctx, cancel: cancel, enqueued: p.clock.now(), resp: resp}
	if p.cfg.BatchWindow <= 0 {
		l := &lone{m: m}
		l.one[0] = &l.m
		l.j.members = l.one[:]
		p.send(&l.j)
		return resp
	}
	fm := new(member) // m itself stays on the stack
	*fm = m
	if full := p.form(fm); full != nil {
		p.send(p.flushJob(full, fm.enqueued))
	}
	return resp
}

// send puts j on the queue without blocking the caller, who holds
// sendMu.RLock on an open pool. When the queue is full a sender
// goroutine waits for room. With batching off the wait also ends at the
// request's own deadline; a formed batch has no one context to wait on,
// and its members' deadlines are checked at pickup instead.
func (p *Pool) send(j *job) {
	select {
	case p.queue <- j:
		return
	default:
	}
	var expired <-chan struct{}
	if p.cfg.BatchWindow <= 0 {
		expired = j.members[0].ctx.Done()
	}
	p.senders.Add(1)
	go func() {
		defer p.senders.Done()
		select {
		case p.queue <- j:
			// A worker owns the job now (possibly after Close: jobs that
			// made it into the queue are drained gracefully).
		case <-expired:
			m := j.members[0]
			p.rejected.Add(1)
			m.reply(Response{Worker: -1, Err: fmt.Errorf("%w: queue full: %v", ErrQueueTimeout, m.ctx.Err())})
		case <-p.done:
			for _, m := range j.members {
				p.rejected.Add(1)
				m.reply(Response{Worker: -1, Err: ErrPoolClosed})
			}
		}
	}()
}

// reroute pushes a job a tripped worker drew back onto the queue for a
// healthy peer, without blocking (a blocking send from a consumer can
// deadlock the pool). It refuses once the job has been rerouted
// 4*Workers+4 times — it has met every tripped worker about four times
// over — and during shutdown (jobs already accepted must resolve now,
// not re-enter a closing queue).
func (p *Pool) reroute(j *job) bool {
	if j.hops >= maxHops(p.cfg.Workers) {
		return false
	}
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.closed {
		return false
	}
	j.hops++ // before the send: the next worker may read it at once
	select {
	case p.queue <- j:
		return true
	default:
		j.hops--
		return false
	}
}

// maxHops is how many reroutes a job may take on a pool of workers.
func maxHops(workers int) int { return 4*workers + 4 }

// Submit is the synchronous form of EvalAsync.
func (p *Pool) Submit(ctx context.Context, req Request) (*dfg.Result, error) {
	r := <-p.EvalAsync(ctx, req)
	return r.Result, r.Err
}

// Close stops accepting requests, waits for queued work to drain, and
// stops the workers. Every request accepted before Close receives a
// response; requests submitted after it fail with ErrPoolClosed. Close
// is idempotent. The uptime clock freezes, and Stats, Registry, Tracer,
// Report and the HTTP handler keep serving the final state.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() {
		p.sendMu.Lock()
		p.closed = true
		p.sendMu.Unlock()
		close(p.done)    // unblocks senders stuck on a full queue
		p.senders.Wait() // every waiting sender has resolved
		// Still-forming batches drain into the open queue; window timers
		// that fire from here on see closed and leave them to this sweep.
		p.formMu.Lock()
		flushes := p.former.close()
		p.formMu.Unlock()
		now := p.clock.now()
		for _, members := range flushes {
			p.queue <- p.flushJob(members, now)
		}
		close(p.queue) // workers drain the remainder and exit
		p.workers.Wait()
		p.closedAt.Store(p.clock.now().UnixNano()) // freeze uptime for final metrics
		if p.cfg.PerfDir != "" {
			// Persist the perf database after the last worker finishes, so
			// the snapshot covers every served request.
			if _, err := p.FlushPerf(); err != nil {
				p.closeErr = fmt.Errorf("serve: perf flush: %w", err)
			}
		}
	})
	return p.closeErr
}
