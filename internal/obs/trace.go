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
// A span's time is partitioned by its stages (Enter, Stage): each starts
// where its predecessor ended and the last ends where the span does, so
// one clock reading closes one stage and opens the next. Nested work
// that is no stage of its parent (parse inside compile, a merged
// batch's members) opens with Child and ends with Finish.
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

	stage   *Span // the stage entered last; open while its End is zero
	isStage bool  // entered through Enter or Stage
	tree    *tree // roots only
}

// tree is what a root carries beside its span: the tracer Finish
// publishes to (nil once published), the trace ID, and the unused
// child slots of the root's block (see Tracer.StartAt).
type tree struct {
	tracer *Tracer
	id     TraceID
	spare  []Span
}

// newChild appends a zero child span, from the root's spare slots while
// they last.
func (s *Span) newChild() *Span {
	var c *Span
	if t := s.tree; t != nil && len(t.spare) > 0 {
		c, t.spare = &t.spare[0], t.spare[1:]
	} else {
		c = new(Span)
	}
	s.Children = append(s.Children, c)
	return c
}

// Child opens a sub-span starting now, outside the span's stages. The
// caller must Finish it (or Stop it) before finishing the parent for
// durations to nest sensibly; nothing enforces this.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.newChild()
	c.Name, c.Start = name, time.Now()
	return c
}

// Event appends a fixed-interval child span — how simulated device
// events, whose modeled timelines are not host wall time, are attached
// to the execute stage on their own tracks.
func (s *Span) Event(name, track string, start, end time.Time, attrs ...Attr) {
	if s == nil {
		return
	}
	*s.newChild() = Span{Name: name, Track: track, Start: start, End: end, Attrs: attrs}
}

// Enter makes name the span's current stage and returns it. With a
// stage open, one clock reading closes it and opens name; with none,
// name opens where the last stage ended (or where the span started)
// and the clock is not read. The last stage closes when the span
// does (Stop, Finish).
func (s *Span) Enter(name string) *Span {
	if s == nil {
		return nil
	}
	at := s.Start
	if last := s.stage; last != nil {
		if at = last.End; at.IsZero() {
			at = time.Now()
			last.close(at)
		}
	}
	c := s.newChild()
	c.Name, c.Start, c.isStage = name, at, true
	s.stage = c
	return c
}

// Stage enters name and closes it at end, an instant the caller
// stamped itself (serve's pickup ends the queue wait there): the next
// stage opens at end.
func (s *Span) Stage(name string, end time.Time) *Span {
	c := s.Enter(name)
	if c != nil {
		c.End = end
	}
	return c
}

// Stages returns the span's stages in order.
func (s *Span) Stages() []*Span {
	if s == nil {
		return nil
	}
	var out []*Span
	for _, c := range s.Children {
		if c.isStage {
			out = append(out, c)
		}
	}
	return out
}

// close ends the span, and its open stage with it, at at.
func (s *Span) close(at time.Time) {
	if last := s.stage; last != nil && last.End.IsZero() {
		last.close(at)
	}
	s.End = at
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

// Stop ends the span at one clock reading, closing its open stage
// there, and returns its end; a span that has ended keeps its end. A
// root's Finish after Stop publishes it without reading the clock, so
// what its caller measured up to Stop (a perf record, a latency
// observation) ends exactly where the trace does.
func (s *Span) Stop() time.Time {
	if s == nil {
		return time.Time{}
	}
	if s.End.IsZero() {
		s.close(time.Now())
	}
	return s.End
}

// Finish ends the span (see Stop). Finishing a root publishes the (now
// immutable) tree to its tracer; finishing twice publishes once.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.Stop()
	if t := s.tree; t != nil && t.tracer != nil {
		tr := t.tracer
		t.tracer = nil
		tr.publish(s)
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
// deadline), the span it records under, when its run began (serve's
// pickup; zero when the caller stamped none) and how long it queued
// before that. A long-lived Carrier passed by address attaches without
// allocating.
type Carrier struct {
	context.Context
	Span  *Span
	Began time.Time
	Wait  time.Duration
}

// FromContext returns the span and queue wait of a Carrier passed as
// ctx itself (nothing wraps one), else nil and 0.
func FromContext(ctx context.Context) (*Span, time.Duration) {
	if c, ok := ctx.(*Carrier); ok {
		return c.Span, c.Wait
	}
	return nil, 0
}

// BeganAt returns when the run of a Carrier passed as ctx began, else
// the zero time.
func BeganAt(ctx context.Context) time.Time {
	if c, ok := ctx.(*Carrier); ok {
		return c.Began
	}
	return time.Time{}
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

// A root and the room a served hit's trace fills are one allocation: a
// hit's root carries six attributes (worker, expr, handle, strategy, n,
// resolved) and three stages (queue-wait, bind, execute); a miss adds
// compile and plan. Past its slots a trace grows on the heap. Blocks
// are not pooled: a published root stays readable in the rings.
const rootAttrs, rootChildren, rootSlots = 6, 5, 3

type block struct {
	root  Span
	tree  tree
	attrs [rootAttrs]Attr
	kids  [rootChildren]*Span
	slots [rootSlots]Span
}

// Start opens a root span now. On a nil tracer it returns nil — the
// no-op span — without touching the clock.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.StartAt(name, time.Now())
}

// StartAt opens a root span that began at at — for a request, when it
// was enqueued.
func (t *Tracer) StartAt(name string, at time.Time) *Span {
	if t == nil {
		return nil
	}
	b := &block{}
	b.tree = tree{tracer: t, id: TraceID(traceSeq.Add(1)), spare: b.slots[:]}
	b.root = Span{Name: name, Start: at, Attrs: b.attrs[:0], Children: b.kids[:0], tree: &b.tree}
	return &b.root
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
