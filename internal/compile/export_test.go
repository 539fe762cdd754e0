package compile

// setMaxEntries bounds each cache at n entries, so tests exercise
// eviction without filling DefaultMaxEntries. Call it before the
// compiler is shared.
func (c *Compiler) setMaxEntries(n int) { c.nets.max, c.plans.max, c.merges.max = n, n, n }
