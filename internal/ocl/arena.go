package ocl

import (
	"errors"
	"fmt"
	"sync"
)

// Arena is a size-class device-buffer pool bound to one context — the
// allocator behind prepared-plan execution. Two reuse mechanisms back
// the warm path:
//
//   - pooled buffers: a released arena buffer returns to a free list
//     keyed by its byte size instead of freeing device memory, so a
//     plan's intermediates and outputs are recycled across executions
//     (and, for the roundtrip strategy, across kernels within one
//     execution) with zero new allocations;
//   - resident sources: UploadResident keeps a slot per source name
//     whose buffer aliases the host's array instead of copying it — the
//     simulated device's memory is host memory — while the model still
//     charges the paper's transfer for every bind. A stable array (the
//     mesh coordinates the paper's in-situ loop binds every timestep) is
//     recognized by address and skips its upload and event entirely.
//
// Pooled and resident buffers remain allocated in the context (they
// really occupy device memory), so Used/Peak accounting reflects the
// pool's footprint. Drain releases everything back to the context.
//
// An Arena is safe for concurrent use; in practice each engine's
// single-goroutine environment owns one (Context.Pool).
type Arena struct {
	ctx *Context

	mu       sync.Mutex
	free     map[int64][]*Buffer // byte size class -> idle buffers
	resident map[string]*residentBuf

	reused        int64 // acquisitions served from a free list
	allocated     int64 // acquisitions that hit Context.NewBuffer
	uploads       int64 // resident binds charged a transfer
	uploadSkips   int64 // resident binds of the stable array already held
	evictions     int64 // buffers evicted under memory pressure
	pooledBytes   int64 // bytes idle in free lists
	residentBytes int64 // bytes held by resident source buffers
}

// residentBuf is one device-resident source: its buffer, the stable
// array it holds, and how many hand-outs are still in use.
type residentBuf struct {
	buf *Buffer
	// stable is the first element of the array the slot was last bound
	// to, when the caller declared that array never rewritten; nil
	// otherwise. The same array bound again is a skip. Holding the
	// pointer keeps the array alive, so its address cannot be reused.
	stable *float32
	// refs counts UploadResident hand-outs not yet Released. Only a
	// slot with refs == 0 may be evicted under memory pressure: a
	// positive count means some execution still has the buffer bound as
	// a kernel argument.
	refs int
}

// newArena builds an arena on the context (see Context.Pool).
func newArena(ctx *Context) *Arena {
	return &Arena{
		ctx:      ctx,
		free:     make(map[int64][]*Buffer),
		resident: make(map[string]*residentBuf),
	}
}

// Pool returns the context's buffer arena, creating it on first use.
// All environments on the context share one pool.
func (c *Context) Pool() *Arena {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pool == nil {
		c.pool = newArena(c)
	}
	return c.pool
}

// Acquire returns a buffer of the requested shape, reusing an idle
// pooled buffer of the same byte size when one exists and allocating
// from the context otherwise. The returned buffer's Release returns it
// to the arena rather than freeing device memory.
func (a *Arena) Acquire(label string, elems, width int) (*Buffer, error) {
	if elems < 0 || width < 1 {
		return nil, fmt.Errorf("ocl: arena buffer %q: invalid shape %d x %d", label, elems, width)
	}
	bytes := int64(elems) * int64(width) * 4
	a.mu.Lock()
	if lst := a.free[bytes]; len(lst) > 0 {
		b := lst[len(lst)-1]
		a.free[bytes] = lst[:len(lst)-1]
		a.pooledBytes -= bytes
		a.reused++
		a.mu.Unlock()
		b.adopt(label, elems, width)
		return b, nil
	}
	a.mu.Unlock()

	b, err := a.ctx.NewBuffer(label, elems, width)
	if err != nil {
		// Genuine accounting pressure (the pool's own idle and stale
		// buffers are crowding out the request) is relieved by evicting
		// and retrying: first the free lists, then any resident source
		// whose hand-outs have all been released. Failures that are NOT
		// real pressure — injected faults on a device with room to spare —
		// surface unchanged, so fault-injection sweeps observe every
		// scheduled error.
		if !memoryPressure(err) {
			return nil, err
		}
		if a.evictFree() {
			b, err = a.ctx.NewBuffer(label, elems, width)
		}
		if err != nil {
			if !memoryPressure(err) {
				return nil, err
			}
			if !a.evictIdleResidents() {
				return nil, err
			}
			if b, err = a.ctx.NewBuffer(label, elems, width); err != nil {
				return nil, err
			}
		}
	}
	b.mu.Lock()
	b.pool = a
	b.mu.Unlock()
	a.mu.Lock()
	a.allocated++
	a.mu.Unlock()
	return b, nil
}

// memoryPressure reports whether an allocation error reflects genuine
// capacity accounting — the request plus live bytes really exceeding
// the device's global memory — as opposed to an injected fault on a
// device with room to spare. Only real pressure justifies evicting
// pooled buffers: eviction cannot cure an injected error, and hiding
// one would break the fault-sweep invariant that every scheduled fault
// is observed.
func memoryPressure(err error) bool {
	var ae *AllocError
	if !errors.As(err, &ae) {
		return false
	}
	return errors.Is(ae.Err, ErrOutOfDeviceMemory) && ae.Requested+ae.InUse > ae.Capacity
}

// evictFree flushes every idle free-list buffer back to the context,
// reporting whether any memory was reclaimed.
func (a *Arena) evictFree() bool {
	a.mu.Lock()
	var victims []*Buffer
	for _, lst := range a.free {
		victims = append(victims, lst...)
	}
	a.free = make(map[int64][]*Buffer)
	a.pooledBytes = 0
	a.evictions += int64(len(victims))
	a.mu.Unlock()
	for _, b := range victims {
		retire(b, false)
	}
	return len(victims) > 0
}

// evictIdleResidents retires every resident source slot with no
// outstanding hand-outs (refs == 0) back to the context, reporting
// whether any memory was reclaimed. Slots still referenced by a running
// execution are never touched: their buffers are bound as kernel
// arguments.
func (a *Arena) evictIdleResidents() bool {
	a.mu.Lock()
	var victims []*Buffer
	for key, r := range a.resident {
		if r.refs > 0 {
			continue
		}
		delete(a.resident, key)
		a.residentBytes -= r.buf.bytes
		victims = append(victims, r.buf)
	}
	a.evictions += int64(len(victims))
	a.mu.Unlock()
	for _, b := range victims {
		retire(b, false)
	}
	return len(victims) > 0
}

// retire takes a buffer out of the arena's keeping — into the free
// lists when recycle is set, freed otherwise — dropping the host array
// a resident buffer may alias, so no later kernel writes into it.
func retire(b *Buffer, recycle bool) {
	b.mu.Lock()
	if !recycle {
		b.pool = nil
	}
	b.pooled, b.resident, b.resKey = false, false, ""
	b.data, b.host = nil, false
	b.mu.Unlock()
	b.Release()
}

// residentReleased returns one hand-out reference for the slot; called
// by Buffer.Release on resident buffers. The buffer argument guards
// against a slot that was already retired and re-keyed. The last
// hand-out of a slot holding no stable array drops the host array its
// buffer aliases.
func (a *Arena) residentReleased(key string, b *Buffer) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.resident[key]
	if r == nil || r.buf != b {
		return
	}
	if r.refs > 0 {
		r.refs--
	}
	if r.refs == 0 && r.stable == nil {
		b.data, b.host = nil, false
	}
}

// recycle returns a released pooled buffer to its free list. The caller
// (Buffer.Release) has already marked the buffer pooled.
func (a *Arena) recycle(b *Buffer) {
	a.mu.Lock()
	a.free[b.bytes] = append(a.free[b.bytes], b)
	a.pooledBytes += b.bytes
	a.mu.Unlock()
}

// UploadResident binds src as a device-resident source. key identifies
// the source slot (usually the source name; tiled strategies add a
// window suffix), label is the buffer's diagnostic/event label. stable
// declares that src's backing array is never written after
// construction.
//
// The slot's buffer does not copy src: it aliases it for as long as the
// hand-out lasts — the simulated device's memory is host memory, and no
// kernel writes a source. The model still charges the transfer: a bind
// consults the write fault point and records the modeled write event
// (Queue.bind), and counts an upload. Only the very stable array the
// slot already holds, at the slot's shape, is a skip — no fault point,
// no event. A first fill or a reshape takes a slot of the new shape
// first. A bind that fails returns its hand-out and binds nothing.
//
// Releasing the last hand-out of a slot that holds no stable array drops
// the alias, so once an evaluation has released its buffers the arena
// neither pins nor reads the caller's arrays. A stable array stays bound
// (and pinned) until the slot is retired.
func (a *Arena) UploadResident(q *Queue, key, label string, src []float32, width int, stable bool) (*Buffer, error) {
	if width < 1 {
		width = 1
	}
	elems := len(src) / width
	var base *float32
	if stable && len(src) > 0 {
		base = &src[0]
	}

	a.mu.Lock()
	r := a.resident[key]
	if r != nil && (r.buf.elems != elems || r.buf.width != width) {
		// Shape changed: retire the old buffer to the free lists.
		delete(a.resident, key)
		a.residentBytes -= r.buf.bytes
		a.mu.Unlock()
		retire(r.buf, true)
		r = nil
		a.mu.Lock()
	}
	if r != nil {
		// The hand-out is taken before the bind, so eviction cannot
		// retire the slot meanwhile.
		r.refs++
		if base != nil && r.stable == base {
			a.uploadSkips++
			a.mu.Unlock()
			return r.buf, nil
		}
	}
	a.mu.Unlock()

	if r == nil {
		nb, err := a.Acquire(label, elems, width)
		if err != nil {
			return nil, err
		}
		nb.mu.Lock()
		nb.resident = true
		nb.resKey = key
		nb.mu.Unlock()
		r = &residentBuf{buf: nb, refs: 1}
		a.mu.Lock()
		a.resident[key] = r
		a.residentBytes += nb.bytes
		a.mu.Unlock()
	}

	// Return the hand-out on any failed bind — including a panic out of
	// the fault point, where the caller never sees the buffer.
	bound := false
	defer func() {
		if !bound {
			a.mu.Lock()
			r.refs--
			a.mu.Unlock()
		}
	}()
	if err := q.bind(r.buf, src); err != nil {
		return nil, err
	}
	bound = true
	a.mu.Lock()
	r.stable = base
	a.uploads++
	a.mu.Unlock()
	return r.buf, nil
}

// Drain releases every idle pooled buffer and every resident source
// back to the context, returning Used and LiveBuffers to what they were
// before the arena was populated. Buffers currently checked out are
// unaffected (they recycle normally when released). The arena remains
// usable after a drain, and Drain is idempotent: draining an
// already-empty arena is a no-op, so recovery paths may drain
// defensively without double-releasing anything.
func (a *Arena) Drain() {
	a.mu.Lock()
	var victims []*Buffer
	for _, lst := range a.free {
		victims = append(victims, lst...)
	}
	for _, r := range a.resident {
		victims = append(victims, r.buf)
	}
	a.free = make(map[int64][]*Buffer)
	a.resident = make(map[string]*residentBuf)
	a.pooledBytes = 0
	a.residentBytes = 0
	a.mu.Unlock()

	for _, b := range victims {
		retire(b, false)
	}
}

// ArenaStats is a snapshot of an arena's reuse counters.
type ArenaStats struct {
	// Reused counts buffer acquisitions served from a free list;
	// Allocated counts acquisitions that allocated fresh device memory.
	Reused, Allocated int64
	// Uploads counts resident-source binds charged a transfer;
	// UploadsSkipped counts binds of the stable array the slot already
	// held, which are charged none.
	Uploads, UploadsSkipped int64
	// Evictions counts pooled or resident buffers freed under genuine
	// memory pressure so a new allocation could fit.
	Evictions int64
	// PooledBytes is the device memory idle in free lists;
	// ResidentBytes the memory pinned by resident source buffers.
	PooledBytes, ResidentBytes int64
	// Resident is the number of resident source slots.
	Resident int
}

// Stats returns a consistent snapshot of the counters.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArenaStats{
		Reused:         a.reused,
		Allocated:      a.allocated,
		Uploads:        a.uploads,
		UploadsSkipped: a.uploadSkips,
		Evictions:      a.evictions,
		PooledBytes:    a.pooledBytes,
		ResidentBytes:  a.residentBytes,
		Resident:       len(a.resident),
	}
}
