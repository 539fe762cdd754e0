package ocl

import "sync/atomic"

// Test-only views of Context and Buffer bookkeeping.

// Used returns the bytes currently allocated to live buffers.
func (c *Context) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Allocations returns the total number of successful buffer allocations.
func (c *Context) Allocations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alloc
}

// MustBuffer is NewBuffer for tests where allocation cannot fail; it
// panics on error.
func (c *Context) MustBuffer(label string, elems, width int) *Buffer {
	b, err := c.NewBuffer(label, elems, width)
	if err != nil {
		panic(err)
	}
	return b
}

// Label returns the buffer's diagnostic label.
func (b *Buffer) Label() string { return b.label }

// SetChunking fixes how a launch on the device splits its ND-range: at
// most workers chunks, none smaller than grain elements. Tests use it to
// put chunk seams where a check must cross them.
func (d *Device) SetChunking(workers, grain int) {
	d.workers, d.grain = workers, grain
}

// PendingView binds data as a speculative launch binds a resident buffer
// whose residency check is pending: data must equal want, and a
// difference raises stale.
func PendingView(data, want []float32, width int, stale *atomic.Bool) View {
	return View{Data: data, Elems: len(data) / width, Width: width, want: want, stale: stale}
}
