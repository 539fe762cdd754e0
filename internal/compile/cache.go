package compile

import (
	"slices"
	"sync"
	"sync/atomic"
)

// cache is the singleflight + second-chance memo behind the network,
// plan and merge caches. The fast path is a read-locked map hit; values
// are immutable once built, so a goroutine holding one that has since
// been evicted keeps using it safely.
//
// Eviction is CLOCK: the keys sit in a ring, a hit sets its entry's
// used bit, and a miss at the bound advances a hand around the ring,
// clearing set bits, until it finds an entry not used since the hand
// last passed; the newcomer takes that slot. A miss costs O(1)
// amortised, and a key touched between two misses survives them.
type cache[K comparable, V any] struct {
	mu      sync.RWMutex
	entries map[K]*entry[V]
	ring    []K // every key, in slot order; the hand sweeps it
	hand    int
	max     int // 0 means DefaultMaxEntries; tests set a smaller bound

	hits, misses, builds atomic.Int64
}

// entry is one cache slot. once guarantees the build runs exactly one
// time even when many goroutines miss on the same key concurrently; done
// flips after the build completes, letting latecomers distinguish a pure
// cache hit from a singleflight wait on a build still in flight.
type entry[V any] struct {
	once sync.Once
	done atomic.Bool
	used atomic.Bool // the CLOCK reference bit: set by a hit, cleared by the hand
	val  V
	err  error
}

// get returns the value cached under key, building it on first use, and
// the outcome spans record: "miss" (this call ran the build), "hit", or
// "singleflight-wait" (the entry existed but its build was still
// running, so once.Do blocked until the leader finished). A failed
// build is cached like a successful one.
func (c *cache[K, V]) get(key K, build func() (V, error)) (V, string, error) {
	e := c.lookup(key)
	outcome := "singleflight-wait"
	if e.done.Load() {
		outcome = "hit"
	}
	e.once.Do(func() {
		outcome = "miss"
		c.builds.Add(1)
		e.val, e.err = build()
		e.done.Store(true)
	})
	return e.val, outcome, e.err
}

// lookup returns the entry for key, creating it (and bounding the cache)
// as needed.
func (c *cache[K, V]) lookup(key K) *entry[V] {
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e != nil {
		c.hits.Add(1)
		if !e.used.Load() {
			e.used.Store(true)
		}
		return e
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.entries[key]; e != nil {
		c.hits.Add(1)
		e.used.Store(true)
		return e
	}
	c.misses.Add(1)
	if c.entries == nil {
		c.entries = make(map[K]*entry[V])
	}
	e = &entry[V]{}
	c.entries[key] = e
	c.insertLocked(key)
	return e
}

// insertLocked gives key a ring slot. Below the bound the ring grows;
// at it, the hand evicts the first entry whose used bit is clear —
// clearing the bits it passes — and key takes that slot. Goroutines
// already holding an evicted entry still complete normally; the result
// simply isn't cached anymore.
func (c *cache[K, V]) insertLocked(key K) {
	limit := c.max
	if limit == 0 {
		limit = DefaultMaxEntries
	}
	for len(c.ring) >= limit {
		c.hand %= len(c.ring)
		old := c.ring[c.hand]
		if c.entries[old].used.Swap(false) {
			c.hand++
			continue
		}
		delete(c.entries, old)
		if len(c.ring) == limit {
			c.ring[c.hand] = key
			c.hand++
			return
		}
		c.ring = slices.Delete(c.ring, c.hand, c.hand+1) // the bound shrank
	}
	c.ring = append(c.ring, key)
}

// len returns the current number of entries.
func (c *cache[K, V]) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
