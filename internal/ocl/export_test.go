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
