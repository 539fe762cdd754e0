package compile

import (
	"sync"
	"sync/atomic"
)

// cache is the singleflight + approximate-LRU memo behind the network,
// plan and merge caches. The fast path is a read-locked map hit; values
// are immutable once built, so a goroutine holding one that has since
// been evicted keeps using it safely.
type cache[K comparable, V any] struct {
	mu      sync.RWMutex
	entries map[K]*entry[V]
	max     int // 0 means DefaultMaxEntries; tests set a smaller bound

	clock                atomic.Int64 // advances on every touch, for LRU eviction
	hits, misses, builds atomic.Int64
}

// entry is one cache slot. once guarantees the build runs exactly one
// time even when many goroutines miss on the same key concurrently; done
// flips after the build completes, letting latecomers distinguish a pure
// cache hit from a singleflight wait on a build still in flight.
type entry[V any] struct {
	once    sync.Once
	done    atomic.Bool
	val     V
	err     error
	lastUse atomic.Int64
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
	now := c.clock.Add(1)
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	counter := &c.hits
	if e == nil {
		c.mu.Lock()
		if e = c.entries[key]; e == nil {
			counter = &c.misses
			e = &entry[V]{}
			e.lastUse.Store(now) // before evicting, or the newcomer is the oldest
			if c.entries == nil {
				c.entries = make(map[K]*entry[V])
			}
			c.entries[key] = e
			c.evictLocked()
		}
		c.mu.Unlock()
	}
	counter.Add(1)
	e.lastUse.Store(now)
	return e
}

// evictLocked drops least-recently-used entries until the cache fits.
// Goroutines already holding an evicted entry still complete normally —
// the result simply isn't cached anymore.
func (c *cache[K, V]) evictLocked() {
	limit := c.max
	if limit == 0 {
		limit = DefaultMaxEntries
	}
	for len(c.entries) > limit {
		var oldestKey K
		oldest := int64(1<<63 - 1)
		for k, e := range c.entries {
			if u := e.lastUse.Load(); u < oldest {
				oldest, oldestKey = u, k
			}
		}
		delete(c.entries, oldestKey)
	}
}

// len returns the current number of entries.
func (c *cache[K, V]) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
