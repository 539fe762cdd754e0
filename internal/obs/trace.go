package obs

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Attrs are a slice, not a
// map, to keep spans cheap and their rendering deterministic.
type Attr struct {
	Key, Value string
}

// Span is one timed stage of a pipeline trace. A span tree is built by
// exactly one goroutine (the engine evaluating the request) and becomes
// immutable once its root is finished — only finished roots are
// published to the tracer, so readers never race with writers.
//
// All methods are nil-safe: a nil *Span (what a nil Tracer hands out)
// absorbs every call, so instrumented code needs no "is tracing on"
// branches.
type Span struct {
	// Name identifies the stage ("eval", "parse", "build", ...).
	Name string
	// Track assigns the span to a timeline track for trace export.
	// Empty means the pipeline track; device events use the ocl event
	// category names ("host-to-device", "kernel", "device-to-host").
	Track string
	// Start and End bound the span in real host time.
	Start, End time.Time
	// Attrs annotates the span (fingerprint, strategy, outcome, bytes...).
	Attrs []Attr
	// Children are the sub-stages, in creation order.
	Children []*Span

	tracer *Tracer // non-nil on roots only; Finish publishes there
	id     string  // trace ID, assigned to roots by Tracer.Start (see ID)
}

// Child opens a sub-span starting now. The caller must Finish it (or a
// later FinishAt) before finishing the parent for durations to nest
// sensibly; nothing enforces this.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: time.Now()}
	s.Children = append(s.Children, c)
	return c
}

// Event appends a fixed-interval child span — how simulated device
// events, whose modeled timelines are not host wall time, are attached
// to the execute stage on their own tracks.
func (s *Span) Event(name, track string, start, end time.Time, attrs ...Attr) {
	if s == nil {
		return
	}
	s.Children = append(s.Children, &Span{
		Name:  name,
		Track: track,
		Start: start,
		End:   end,
		Attrs: attrs,
	})
}

// SetAttr annotates the span, returning it for chaining.
func (s *Span) SetAttr(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	return s
}

// Attr returns the value of the named attribute ("" if absent).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Finish stamps the end time. Finishing a root publishes the (now
// immutable) tree to its tracer; finishing twice publishes once.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	if !s.End.IsZero() {
		return
	}
	s.End = time.Now()
	if s.tracer != nil {
		s.tracer.publish(s)
	}
}

// Duration is the span's elapsed time (zero until finished).
func (s *Span) Duration() time.Duration {
	if s == nil || s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Find returns the first span named name in a depth-first walk of the
// tree rooted at s (including s itself), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// WriteText renders the span tree as an indented text outline — the
// slow-request log format.
func (s *Span) WriteText(w io.Writer) {
	if s == nil {
		return
	}
	var walk func(sp *Span, depth int)
	walk = func(sp *Span, depth int) {
		var attrs strings.Builder
		for _, a := range sp.Attrs {
			fmt.Fprintf(&attrs, " %s=%s", a.Key, a.Value)
		}
		track := ""
		if sp.Track != "" {
			track = " [" + sp.Track + "]"
		}
		fmt.Fprintf(w, "%s%-12s %12v%s%s\n",
			strings.Repeat("  ", depth), sp.Name, sp.End.Sub(sp.Start), track, attrs.String())
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
}

// Carrier is the context a request runs under: the caller's (its
// deadline), the span it records under and how long it queued first.
// A long-lived Carrier passed by address attaches without allocating.
type Carrier struct {
	context.Context
	Span *Span
	Wait time.Duration
}

// FromContext returns the span and queue wait of a Carrier passed as
// ctx itself (nothing wraps one), else nil and 0.
func FromContext(ctx context.Context) (*Span, time.Duration) {
	if c, ok := ctx.(*Carrier); ok {
		return c.Span, c.Wait
	}
	return nil, 0
}

// Tracer collects finished request traces in two rings: recent holds
// every finished root, kept the ones worth keeping past it (see keep).
// Starting spans is lock-free (each request's tree is private to its
// goroutine); publishing and reading the rings takes a mutex. The zero
// Tracer pointer (nil) is a valid no-op tracer: Start returns a nil span
// and nothing is recorded.
type Tracer struct {
	mu     sync.Mutex
	recent ring
	kept   ring

	slowThreshold time.Duration
	onSlow        func(*Span)

	durations Histogram // running root-duration distribution for the tail cut
}

// DefaultKeep is the ring capacity NewTracer(0) uses.
const DefaultKeep = 64

// NewTracer builds a tracer retaining the last keep finished traces
// (DefaultKeep if keep <= 0). The kept ring has the same capacity.
func NewTracer(keep int) *Tracer {
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &Tracer{recent: newRing(keep), kept: newRing(keep)}
}

// SetSlow configures the slow-request cut: finished roots whose duration
// is >= threshold are kept and passed to fn (if non-nil), which must be
// safe for concurrent use. A zero threshold disables the cut.
func (t *Tracer) SetSlow(threshold time.Duration, fn func(*Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slowThreshold = threshold
	t.onSlow = fn
	t.mu.Unlock()
}

// A root collects a request's attributes and its stage children; sizing
// both once at Start keeps them from regrowing attribute by attribute
// (a served request's root carries six attributes and three children).
const rootAttrs, rootChildren = 8, 4

// Start opens a root span. On a nil tracer it returns nil — the no-op
// span — without touching the clock.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{Name: name, Start: time.Now(), tracer: t, id: nextTraceID(),
		Attrs: make([]Attr, 0, rootAttrs), Children: make([]*Span, 0, rootChildren)}
}

// publish files a finished root into the rings and fires the slow hook.
func (t *Tracer) publish(root *Span) {
	var slowFn func(*Span)
	t.mu.Lock()
	t.recent.add(root)
	slow := t.slowThreshold > 0 && root.Duration() >= t.slowThreshold
	if slow {
		slowFn = t.onSlow
	}
	if t.keep(root, slow) {
		t.kept.add(root)
	}
	t.mu.Unlock()
	if slowFn != nil {
		slowFn(root) // outside the lock: the hook may be slow (it logs)
	}
}

// Last returns up to n of the most recent finished traces, oldest
// first. n <= 0 means all retained.
func (t *Tracer) Last(n int) []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recent.last(n)
}

// ring is a fixed-capacity overwrite-oldest buffer of trace roots.
type ring struct {
	buf  []*Span
	next int
	full bool
}

func newRing(capacity int) ring { return ring{buf: make([]*Span, capacity)} }

func (r *ring) add(s *Span) {
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// last returns up to n entries, oldest first.
func (r *ring) last(n int) []*Span {
	size := r.next
	if r.full {
		size = len(r.buf)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]*Span, 0, n)
	for i := size - n; i < size; i++ {
		idx := i
		if r.full {
			idx = (r.next + i) % len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}
