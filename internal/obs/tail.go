package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Trace IDs are assigned to every root span a tracer starts, so a
// /slow line, a perf-database record and a flight-recorder entry can
// all point at the same kept trace. The ID is process-unique and cheap:
// a sequence number, rendered behind a start-time prefix — no
// randomness needed, collisions across restarts are made unlikely by
// the millisecond prefix.
var (
	traceSeq    atomic.Uint64
	tracePrefix = fmt.Sprintf("%08x-", uint64(time.Now().UnixMilli())&0xffffffff)
)

// TraceID numbers a root span within the process. It is formatted only
// where it is read (String): a request carries the number.
type TraceID uint64

// String renders the ID as the prefix and the hex sequence number, ""
// for the zero ID.
func (id TraceID) String() string {
	if id == 0 {
		return ""
	}
	var buf [32]byte
	return string(strconv.AppendUint(append(buf[:0], tracePrefix...), uint64(id), 16))
}

// parseTraceID is String's inverse: 0 for a string no ID of this
// process renders as.
func parseTraceID(s string) TraceID {
	hex, ok := strings.CutPrefix(s, tracePrefix)
	if !ok {
		return 0
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil || strconv.FormatUint(seq, 16) != hex {
		return 0
	}
	return TraceID(seq)
}

// TraceID returns the span's trace ID (0 on non-roots and nil spans).
func (s *Span) TraceID() TraceID {
	if s == nil || s.tree == nil {
		return 0
	}
	return s.tree.id
}

// ID returns the span's trace ID rendered ("" on non-roots and nil
// spans).
func (s *Span) ID() string { return s.TraceID().String() }

const (
	// tailPercent is the running slowest share of roots the kept ring
	// takes regardless of any slow threshold.
	tailPercent = 5.0
	// tailMinSamples is how many durations the tail estimator needs before
	// quantile-based keeping kicks in — below it, every root would be
	// "the slowest 5%" of a near-empty histogram.
	tailMinSamples = 32
)

// keep decides, with t.mu held, whether a finished root belongs in the
// kept ring: it is interesting, at or above the slow threshold, or — once
// the estimator has tailMinSamples durations — in the running slowest
// tailPercent of all roots.
func (t *Tracer) keep(root *Span, slow bool) bool {
	d := root.Duration()
	t.durations.Observe(d)
	if slow || interesting(root) {
		return true
	}
	return t.durations.Count() >= tailMinSamples && d >= t.durations.Quantile(1-tailPercent/100)
}

// interesting reports whether a trace is unconditionally worth keeping:
// it errored, degraded down the fallback ladder, burned a retry, or was
// rerouted off a tripped worker.
func interesting(root *Span) bool {
	if root.Attr("error") != "" || root.Attr("rerouted") != "" {
		return true
	}
	return root.Find("fallback") != nil || root.Find("retry") != nil
}

// Kept returns up to n kept traces, oldest first. n <= 0 means all.
func (t *Tracer) Kept(n int) []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kept.last(n)
}

// ByID returns the kept or recent trace with the given ID (nil if it
// has aged out of both rings).
func (t *Tracer) ByID(id string) *Span {
	want := parseTraceID(id)
	if t == nil || want == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range []*ring{&t.kept, &t.recent} {
		for _, sp := range r.last(0) { // IDs are unique: any order finds it
			if sp.TraceID() == want {
				return sp
			}
		}
	}
	return nil
}
