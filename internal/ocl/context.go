package ocl

import (
	"errors"
	"fmt"
	"sync"
)

// Context owns device buffer allocations, mirroring cl_context. It
// enforces the device's global memory capacity and tracks the
// high-water mark of allocated bytes — the quantity plotted in the
// paper's Figure 6.
type Context struct {
	dev *Device

	mu    sync.Mutex
	used  int64
	peak  int64
	live  int
	alloc int // total successful allocations (monotone)
	// fplan is the attached fault injector (nil = no injection) and lost
	// the device-lost latch it can set. See SetFaultPlan and Heal.
	fplan *FaultPlan
	lost  bool
	// pool is the context's lazily created buffer arena (see Pool).
	pool *Arena
}

// NewContext creates a context on the device.
func NewContext(dev *Device) *Context {
	return &Context{dev: dev}
}

// SetFaultPlan attaches a fault injector to the context; every
// subsequent allocation, transfer and kernel launch consults it. A nil
// plan disables injection. Replacing the plan does not clear a latched
// device loss — use Heal for that.
func (c *Context) SetFaultPlan(p *FaultPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fplan = p
}

// FaultPlan returns the attached fault injector, or nil.
func (c *Context) FaultPlan() *FaultPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fplan
}

// Lost reports whether the device is latched lost: every operation
// fails with ErrDeviceLost until Heal.
func (c *Context) Lost() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lost
}

// Heal clears a latched device loss, simulating a driver reset that
// brought the device back. Buffer contents survive in the simulation
// (accounting was never touched), but callers should treat the device
// as fresh.
func (c *Context) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lost = false
}

// faultPoint runs the fault check for one device operation: a latched
// device loss fails everything, and otherwise the attached plan (if
// any) decides. Injected errors are typed *FaultError; an EffectPanic
// rule panics from here, inside the operation.
func (c *Context) faultPoint(op FaultOp, name string) error {
	c.mu.Lock()
	lost, plan := c.lost, c.fplan
	c.mu.Unlock()
	if lost {
		return &FaultError{Op: op, Device: c.dev.spec.Name, Name: name, Err: ErrDeviceLost}
	}
	if plan == nil {
		return nil
	}
	effect, fired := plan.fire(op)
	if !fired {
		return nil
	}
	switch effect {
	case EffectPanic:
		panic(fmt.Sprintf("ocl: injected panic: device %q: %s %q", c.dev.spec.Name, op, name))
	case EffectDeviceLost:
		c.mu.Lock()
		c.lost = true
		c.mu.Unlock()
		return &FaultError{Op: op, Device: c.dev.spec.Name, Name: name, Err: ErrDeviceLost}
	}
	return &FaultError{Op: op, Device: c.dev.spec.Name, Name: name, Err: faultSentinel(op)}
}

// Device returns the context's device.
func (c *Context) Device() *Device { return c.dev }

// Peak returns the high-water mark of allocated bytes since the context
// was created or ResetPeak was last called.
func (c *Context) Peak() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// LiveBuffers returns the number of unreleased buffers.
func (c *Context) LiveBuffers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// ResetPeak sets the high-water mark to the current usage, so a fresh
// experiment can be measured on a long-lived context.
func (c *Context) ResetPeak() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peak = c.used
}

// Buffer is a device global-memory allocation, mirroring cl_mem. Elements
// may be scalar (Width 1) or OpenCL vector typed (Width 2 or 4, as the
// fusion code generator uses float2/float4).
type Buffer struct {
	ctx   *Context
	label string
	// data is the buffer's storage: nil until first use (mem) and once
	// Env.Download has handed it to the caller, and the host's own array,
	// with host set, while an upload binds it (Queue.bind). Only the
	// goroutine driving the buffer's queue touches either.
	data  []float32
	host  bool
	elems int
	width int
	bytes int64

	mu       sync.Mutex
	released bool
	// pool, pooled and resident implement arena-backed buffers: a buffer
	// with a pool recycles into it on Release instead of freeing; pooled
	// marks it idle in a free list; resident marks it owned by the
	// arena's device-resident source cache, where Release only drops the
	// slot's in-use reference (resKey names the slot) — the buffer stays
	// on the device until the arena drains or evicts it under memory
	// pressure.
	pool     *Arena
	pooled   bool
	resident bool
	resKey   string
}

// NewBuffer allocates a device buffer of elems elements, each width
// float32 components wide. The label is used in diagnostics and event
// records. Allocation fails with an *AllocError if the buffer alone
// exceeds the device's max allocation size or if it would push total
// usage past global memory capacity.
func (c *Context) NewBuffer(label string, elems, width int) (*Buffer, error) {
	if elems < 0 || width < 1 {
		return nil, fmt.Errorf("ocl: buffer %q: invalid shape %d x %d", label, elems, width)
	}
	bytes := int64(elems) * int64(width) * 4
	spec := c.dev.spec

	if ferr := c.faultPoint(FaultAlloc, label); ferr != nil {
		// Capacity-class injections keep the *AllocError shape real
		// capacity failures have always had, so callers classify both
		// paths identically.
		if errors.Is(ferr, ErrOutOfDeviceMemory) || errors.Is(ferr, ErrAllocTooLarge) {
			var fe *FaultError
			cause := ferr
			if errors.As(ferr, &fe) {
				cause = fe.Err
			}
			c.mu.Lock()
			used := c.used
			c.mu.Unlock()
			return nil, &AllocError{Device: spec.Name, Buffer: label, Requested: bytes, InUse: used, Capacity: spec.GlobalMemSize, Err: cause}
		}
		return nil, ferr
	}

	c.mu.Lock()
	if bytes > spec.MaxAllocSize {
		err := &AllocError{Device: spec.Name, Buffer: label, Requested: bytes, InUse: c.used, Capacity: spec.GlobalMemSize, Err: ErrAllocTooLarge}
		c.mu.Unlock()
		return nil, err
	}
	if c.used+bytes > spec.GlobalMemSize {
		err := &AllocError{Device: spec.Name, Buffer: label, Requested: bytes, InUse: c.used, Capacity: spec.GlobalMemSize, Err: ErrOutOfDeviceMemory}
		c.mu.Unlock()
		return nil, err
	}
	c.used += bytes
	if c.used > c.peak {
		c.peak = c.used
	}
	c.live++
	c.alloc++
	c.mu.Unlock()

	return &Buffer{
		ctx:   c,
		label: label,
		elems: elems,
		width: width,
		bytes: bytes,
	}, nil
}

// Release frees the buffer's device memory. Releasing twice is a no-op,
// matching clReleaseMemObject reference semantics for a single owner.
// Arena-backed buffers do not free: a pooled buffer recycles into its
// arena's free lists (still allocated on the device, ready for reuse),
// and a resident source buffer only returns its hand-out reference to
// the arena — the buffer stays on the device until Drain, a shape
// change, or memory-pressure eviction retires it.
func (b *Buffer) Release() {
	b.mu.Lock()
	if b.released || b.pooled {
		b.mu.Unlock()
		return
	}
	if b.host && !b.resident {
		// Drop the bound host array, so that no later use of a recycled
		// buffer writes into it and the buffer does not pin it.
		b.data, b.host = nil, false
	}
	if b.resident {
		pool, key := b.pool, b.resKey
		b.mu.Unlock()
		if pool != nil && key != "" {
			pool.residentReleased(key, b)
		}
		return
	}
	if b.pool != nil {
		pool := b.pool
		b.pooled = true
		b.mu.Unlock()
		pool.recycle(b)
		return
	}
	b.released = true
	b.mu.Unlock()

	b.ctx.mu.Lock()
	b.ctx.used -= b.bytes
	b.ctx.live--
	b.ctx.mu.Unlock()
}

// adopt reshapes a recycled pooled buffer for its next checkout. The
// requested shape's byte size equals the buffer's allocation (free
// lists are keyed by byte size), so only the logical view changes.
func (b *Buffer) adopt(label string, elems, width int) {
	b.mu.Lock()
	b.label = label
	b.elems = elems
	b.width = width
	b.pooled = false
	b.mu.Unlock()
}

// mem returns the buffer's storage, allocating fresh zeroed storage on
// first use and when a download handed the old one over: the zeroing
// happens just before a kernel or a write fills the buffer.
func (b *Buffer) mem() []float32 {
	if b.data == nil && b.bytes > 0 {
		b.data = make([]float32, b.bytes/4)
	}
	return b.data
}

// handOver gives the caller the buffer's storage, leaving the buffer
// to refill on its next use — a download without a copy.
func (b *Buffer) handOver() []float32 {
	data := b.mem()
	b.data = nil
	return data
}

// Released reports whether the buffer has been released.
func (b *Buffer) Released() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.released
}

// Elems returns the number of elements in the buffer.
func (b *Buffer) Elems() int { return b.elems }

// Width returns the number of float32 components per element.
func (b *Buffer) Width() int { return b.width }

// Bytes returns the buffer's size in bytes.
func (b *Buffer) Bytes() int64 { return b.bytes }

// Data exposes the backing storage for kernel execution. It is the
// simulated device memory; host code outside kernels should use the
// queue's ReadBuffer/WriteBuffer so transfers are counted and costed.
func (b *Buffer) Data() []float32 { return b.mem() }
