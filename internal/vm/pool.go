package vm

import (
	"math/bits"
	"sync"
)

// The scratch pool recycles the executor's host working storage — the
// register slab of every pass run and the vm strategy's
// materialized-node arrays — across runs, the host-side counterpart of
// the device buffer arena: a warm evaluation performs zero scratch
// allocations. Slices are bucketed by power-of-two capacity under a
// mutex; counters are deterministic (unlike sync.Pool, nothing is
// dropped behind the program's back), so the warm-vs-cold gates in
// metrics.RunRepeat and the allocation tests can assert exact numbers.
type scratchPool struct {
	mu     sync.Mutex
	free   map[int][][]float32 // pow2 capacity -> free slices
	allocs int64
	reuses int64
}

var pool = scratchPool{free: make(map[int][][]float32)}

// PoolStats are the scratch pool's monotonic counters.
type PoolStats struct {
	// Allocs counts slices freshly allocated because no pooled slice of
	// the right bucket was free.
	Allocs int64
	// Reuses counts requests served from the pool.
	Reuses int64
}

// Stats snapshots the scratch pool counters.
func Stats() PoolStats {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return PoolStats{Allocs: pool.allocs, Reuses: pool.reuses}
}

// DrainPool empties the free lists (counters are kept), releasing all
// pooled scratch to the garbage collector. Tests drain before a cold-run
// measurement so "cold" deterministically means "allocates".
func DrainPool() {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	pool.free = make(map[int][][]float32)
}

// bucketFor rounds a size up to the pool's power-of-two bucket.
func bucketFor(size int) int {
	if size <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(size-1))
}

// GetScratch returns a slice of exactly size float32s backed by pooled
// storage. Contents are unspecified: every program writes each register
// lane and scratch element before reading it (the differential harness
// runs over NaN-poisoned slabs to catch any stale read).
func GetScratch(size int) []float32 {
	b := bucketFor(size)
	pool.mu.Lock()
	if list := pool.free[b]; len(list) > 0 {
		s := list[len(list)-1]
		pool.free[b] = list[:len(list)-1]
		pool.reuses++
		pool.mu.Unlock()
		return s[:size]
	}
	pool.allocs++
	pool.mu.Unlock()
	return make([]float32, b)[:size]
}

// PutScratch returns a slice obtained from GetScratch to its bucket.
func PutScratch(s []float32) {
	b := cap(s)
	if b == 0 || b&(b-1) != 0 {
		return // not pool-originated; drop
	}
	pool.mu.Lock()
	pool.free[b] = append(pool.free[b], s[:0])
	pool.mu.Unlock()
}
