package ocl

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

// HostAliases counts the arena's buffers that hold an array the caller
// did not declare stable — resident slots, and idle buffers an upload
// bound: none once every hand-out is released.
func (a *Arena) HostAliases() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, r := range a.resident {
		if r.stable == nil && r.buf.data != nil {
			n++
		}
	}
	for _, lst := range a.free {
		for _, b := range lst {
			if b.host {
				n++
			}
		}
	}
	return n
}
