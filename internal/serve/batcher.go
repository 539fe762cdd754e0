package serve

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// batchKey groups requests that may merge into one batch: same element
// count, variant and input binding (inputIdentity). A merged
// super-network executes against one binding, so requests carrying
// different input sets never merge.
type batchKey struct {
	n      int
	v      variant
	inputs string
}

// inputIdentity spells a binding by identity, not content: each input's
// quoted name (so no name can forge a separator), the address of its
// first element and its length, in sorted order. A zero-length array
// spells address 0 — it holds nothing, so all of them bind alike.
func inputIdentity(inputs map[string][]float32) string {
	ids := make([]string, 0, len(inputs))
	for name, s := range inputs {
		var addr uintptr
		if len(s) > 0 {
			addr = uintptr(unsafe.Pointer(&s[0]))
		}
		ids = append(ids, strconv.Quote(name)+"@"+strconv.FormatUint(uint64(addr), 16)+"+"+strconv.Itoa(len(s)))
	}
	sort.Strings(ids)
	return strings.Join(ids, "|")
}

// former is the forming-batch machine. Its events are join, tick and
// close; its outputs are flushes, each the member list of one job. It
// holds no lock, timer, goroutine or channel: the pool serialises its
// events under formMu, reads time from its clock, and points its one
// timer at next.
type former struct {
	window time.Duration
	max    int
	// forming holds the open batches in opening order. The window is the
	// same for all, so deadlines ascend too and a tick flushes a prefix.
	forming []formingBatch
}

// formingBatch is one batch accumulating members until its window
// passes or it fills to max.
type formingBatch struct {
	key     batchKey
	opened  time.Time
	members []*member
}

// join adds m to its key's batch, opening one at now on first touch,
// and returns the batch's members when this join filled it.
func (f *former) join(m *member, now time.Time) []*member {
	key := batchKey{m.req.N, m.v, inputIdentity(m.req.Inputs)}
	i := slices.IndexFunc(f.forming, func(b formingBatch) bool { return b.key == key })
	if i < 0 {
		i = len(f.forming)
		f.forming = append(f.forming, formingBatch{key: key, opened: now})
	}
	b := &f.forming[i]
	b.members = append(b.members, m)
	if len(b.members) < f.max {
		return nil
	}
	full := b.members
	f.forming = slices.Delete(f.forming, i, i+1)
	return full
}

// tick flushes every batch whose window has passed at now.
func (f *former) tick(now time.Time) [][]*member {
	n := 0
	for n < len(f.forming) && !now.Before(f.forming[n].opened.Add(f.window)) {
		n++
	}
	return f.take(n)
}

// close flushes every batch: the pool is shutting down.
func (f *former) close() [][]*member { return f.take(len(f.forming)) }

// take flushes the first n batches.
func (f *former) take(n int) [][]*member {
	if n == 0 {
		return nil
	}
	out := make([][]*member, n)
	for i := range out {
		out[i] = f.forming[i].members
	}
	f.forming = slices.Delete(f.forming, 0, n)
	return out
}

// next is the deadline of the oldest batch, if one is forming.
func (f *former) next() (time.Time, bool) {
	if len(f.forming) == 0 {
		return time.Time{}, false
	}
	return f.forming[0].opened.Add(f.window), true
}

// form hands m to the former and returns a batch the join filled. The
// caller holds sendMu.RLock, so Close's sweep sees every formed member.
func (p *Pool) form(m *member) []*member {
	p.formMu.Lock()
	defer p.formMu.Unlock()
	full := p.former.join(m, m.enqueued)
	p.arm(m.enqueued)
	return full
}

// tick is the window timer's call: every batch whose window has passed
// becomes a job. A closing pool leaves its batches to Close's sweep,
// which puts them straight into the queue the workers still drain.
func (p *Pool) tick() {
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.closed {
		return
	}
	p.formMu.Lock()
	now := p.clock.now()
	flushes := p.former.tick(now)
	p.arm(now)
	p.formMu.Unlock()
	for _, members := range flushes {
		p.send(p.flushJob(members, now))
	}
}

// arm points the pool's one timer at the former's next deadline. A
// timer that fires early (its batch filled and left) finds nothing due
// and re-arms. The caller holds formMu.
func (p *Pool) arm(now time.Time) {
	if next, ok := p.former.next(); ok {
		p.clock.wake(next.Sub(now))
	}
}

// flushJob stamps a member set leaving the former and wraps it as the
// one job the queue carries. Forming wait (enqueue to flush) is observed
// here; the members' queue wait starts at the flush stamp.
func (p *Pool) flushJob(members []*member, now time.Time) *job {
	for _, m := range members {
		p.formingHist.Observe(now.Sub(m.enqueued))
		m.formed = now
	}
	return &job{members: members}
}
