package perfdb

import (
	"sort"
	"sync"
	"sync/atomic"
)

// recorderShards is the fixed shard count (a power of two so shard
// selection is a mask). Sixteen shards keep contention negligible for
// pools far larger than the default four workers.
const recorderShards = 16

// DefaultShardCapacity is the per-shard ring size NewRecorder(0) uses:
// 16 shards x 512 records = the last 8192 evaluations retained.
const DefaultShardCapacity = 512

// Recorder is the always-on continuous-profiling sink: a sharded ring
// buffer of EvalRecords. Record is a shard-local mutex acquire plus a
// struct copy — no allocation, no channel, no global lock — so it stays
// under the warm-path overhead budget even at pool concurrency. When a
// ring wraps, the oldest records are overwritten (and counted as
// dropped); Snapshot and Flush read a consistent copy.
//
// All methods are safe for concurrent use. The nil *Recorder is a valid
// no-op: Record does nothing, Snapshot returns nil.
type Recorder struct {
	shards  [recorderShards]recorderShard
	seq     atomic.Uint64 // records ever accepted; also picks the shard
	dropped atomic.Int64  // records overwritten before any snapshot
}

type recorderShard struct {
	mu   sync.Mutex
	buf  []EvalRecord
	next int
	full bool
}

// NewRecorder builds a recorder retaining perShard records per shard
// (DefaultShardCapacity if perShard <= 0).
func NewRecorder(perShard int) *Recorder {
	if perShard <= 0 {
		perShard = DefaultShardCapacity
	}
	r := &Recorder{}
	for i := range r.shards {
		r.shards[i].buf = make([]EvalRecord, perShard)
	}
	return r
}

// Record deposits one evaluation record. Shard selection round-robins on
// an atomic counter, so concurrent writers spread across shards no
// matter which goroutines they run on.
func (r *Recorder) Record(rec EvalRecord) {
	if r == nil {
		return
	}
	s := &r.shards[r.seq.Add(1)&(recorderShards-1)]
	s.mu.Lock()
	if s.full {
		r.dropped.Add(1)
	}
	s.buf[s.next] = rec
	s.next++
	if s.next == len(s.buf) {
		s.next, s.full = 0, true
	}
	s.mu.Unlock()
}

// Recorded returns the number of records ever accepted; Dropped the
// number overwritten by ring wrap-around.
func (r *Recorder) Recorded() int64 {
	if r == nil {
		return 0
	}
	return int64(r.seq.Load())
}

// Dropped returns the number of records lost to ring wrap-around.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Len returns the number of records currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		if s.full {
			n += len(s.buf)
		} else {
			n += s.next
		}
		s.mu.Unlock()
	}
	return n
}

// Snapshot copies out every retained record, ordered by timestamp, its
// trace ID rendered.
// Records written concurrently with the snapshot may or may not appear;
// each shard's copy is internally consistent.
func (r *Recorder) Snapshot() []EvalRecord {
	if r == nil {
		return nil
	}
	out := make([]EvalRecord, 0, r.Len())
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		if s.full {
			out = append(out, s.buf[s.next:]...)
			out = append(out, s.buf[:s.next]...)
		} else {
			out = append(out, s.buf[:s.next]...)
		}
		s.mu.Unlock()
	}
	for i := range out {
		if out[i].TraceID == "" {
			out[i].TraceID = out[i].Trace.String()
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].UnixNS < out[j].UnixNS })
	return out
}

// Last returns up to n of the most recent records (by timestamp),
// oldest first — a flight dump's view of recent history.
func (r *Recorder) Last(n int) []EvalRecord {
	all := r.Snapshot()
	if n <= 0 || n >= len(all) {
		return all
	}
	return all[len(all)-n:]
}
