package ocl

import "time"

// pendingCheck is a resident hand-out whose residency check has not run
// yet: Arena.UploadResident gave out the filled slot without comparing,
// and the check resolves later, in upload order, at the first of
//
//   - a launch of a verifying kernel (Kernel.Verifies) whose arguments
//     include every pending buffer: the kernel compares each window
//     just before it reads it, and a clean launch counts the skips;
//   - any other device operation on the queue — an allocation that
//     reaches Context.NewBuffer, a write, a read, a launch of a kernel
//     that does not verify — before that operation's own fault point;
//   - the release of the hand-out, a backstop for error paths.
//
// Resolving compares and either counts a skip or writes the source, so
// the event sequence, the order of fault operations and the arena's
// counters are those of an upload that compared at once.
type pendingCheck struct {
	arena *Arena
	slot  *residentBuf
	src   []float32
	// base is the source's first element when the caller declared the
	// array stable, nil otherwise; resolving records it on the slot.
	base *float32
	// known marks a stable array the slot was last filled from, queued
	// behind checks still pending so the skips count in upload order: it
	// resolves to a skip without reading either side, and it does not
	// mark the slot, which other queues may be handing out at once.
	known bool
}

// resolve runs one check — the comparison an eager upload makes, then a
// skip or a write — and unmarks the slot.
func (p *pendingCheck) resolve(q *Queue) error {
	a, r := p.arena, p.slot
	if p.known || sameBits(r.buf.data, p.src) {
		a.mu.Lock()
		p.settle(q)
		a.mu.Unlock()
		return nil
	}
	_, err := q.write(r.buf, p.src)
	a.mu.Lock()
	if err == nil {
		r.filled, r.stable = true, p.base
		a.uploads++
	}
	p.unmark(q)
	a.mu.Unlock()
	return err
}

// settle counts the check as a skip and unmarks the slot; the caller
// holds the arena's lock.
func (p *pendingCheck) settle(q *Queue) {
	p.slot.stable = p.base
	p.arena.uploadSkips++
	p.unmark(q)
}

// unmark clears the slot's record of the queue holding its check; the
// caller holds the arena's lock.
func (p *pendingCheck) unmark(q *Queue) {
	if p.slot.pending == q {
		p.slot.pending = nil
	}
}

// resolvePending resolves every pending check in upload order. When a
// write fails, or its fault point panics, the rest are dropped
// unresolved, as the uploads after a failed one never happen; their
// hand-outs still return on Release.
func (q *Queue) resolvePending() error {
	if len(q.pending) == 0 {
		return nil
	}
	i := 0
	defer func() { q.dropPending(i) }()
	for ; i < len(q.pending); i++ {
		if err := q.pending[i].resolve(q); err != nil {
			i++ // resolve unmarked its slot
			return err
		}
	}
	return nil
}

// dropPending unmarks the slots of the checks from index from on, which
// were never resolved, and empties the list, keeping its storage.
func (q *Queue) dropPending(from int) {
	for i := from; i < len(q.pending); i++ {
		p := &q.pending[i]
		p.arena.mu.Lock()
		p.unmark(q)
		p.arena.mu.Unlock()
	}
	clear(q.pending)
	q.pending = q.pending[:0]
}

// settlePending counts every pending check as a skip: the clean end of
// a speculative launch, which compared each window it read.
func (q *Queue) settlePending() {
	var locked *Arena // one lock for the run of checks on one arena
	for i := range q.pending {
		p := &q.pending[i]
		if p.arena != locked {
			if locked != nil {
				locked.mu.Unlock()
			}
			locked = p.arena
			locked.mu.Lock()
		}
		p.settle(q)
	}
	if locked != nil {
		locked.mu.Unlock()
	}
	q.dropPending(len(q.pending))
}

// bindChecks binds every pending check that needs a comparison into the
// launch's views — each with its source and the queue's stale flag —
// and reports whether the launch can run speculatively: every such
// check's buffer must be an argument, or the kernel could not verify
// it. On false no view is left bound.
func (q *Queue) bindChecks(bufs []*Buffer, views []View) bool {
	if len(q.pending) == 0 {
		return false
	}
	q.stale.Store(false)
	for i := range q.pending {
		p := &q.pending[i]
		if p.known {
			continue
		}
		bound := false
		for j, b := range bufs {
			if b != p.slot.buf {
				continue
			}
			if views[j].stale != nil {
				// A second check on one buffer: only resolving them
				// in order tells which source it must hold.
				unbindChecks(views)
				return false
			}
			views[j].want, views[j].stale = p.src, &q.stale
			bound = true
		}
		if !bound {
			unbindChecks(views)
			return false
		}
	}
	return true
}

// unbindChecks clears every view's residency check.
func unbindChecks(views []View) {
	for i := range views {
		views[i].want, views[i].stale = nil, nil
	}
}

// speculate runs the passes of a launch whose pending views are bound
// and reports whether every check came out clean. The kernel verified
// what it read, which covers every pending view up to n elements; the
// rest of a longer buffer is compared here.
func (q *Queue) speculate(n int, passes []KernelFunc, views []View, scalars []float64) (wall time.Duration, clean bool) {
	for _, pass := range passes {
		wall += q.ctx.dev.execute(n, pass, views, scalars)
		if q.stale.Load() {
			return 0, false
		}
	}
	for i := range views {
		v := &views[i]
		if v.stale == nil {
			continue
		}
		if len(v.want) != len(v.Data) {
			return 0, false
		}
		if from := min(n*v.Width, len(v.Data)); !sameBits(v.Data[from:], v.want[from:]) {
			return 0, false
		}
	}
	return wall, true
}
