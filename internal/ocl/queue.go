package ocl

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// EventKind categorizes a device event, matching the three categories the
// paper's environment interface records and Table II counts.
type EventKind int

const (
	// WriteEvent is a host-to-device transfer (Dev-W in Table II).
	WriteEvent EventKind = iota
	// ReadEvent is a device-to-host transfer (Dev-R in Table II).
	ReadEvent
	// KernelEvent is a kernel execution (K-Exe in Table II).
	KernelEvent
)

// String names the event kind as in the paper's tables.
func (k EventKind) String() string {
	switch k {
	case WriteEvent:
		return "Dev-W"
	case ReadEvent:
		return "Dev-R"
	case KernelEvent:
		return "K-Exe"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one profiled device operation, mirroring the OpenCL device
// profiling API (CL_PROFILING_COMMAND_QUEUED/START/END). Queued, Start
// and End are offsets on the queue's simulated in-order timeline; Wall is
// the real host time the simulated operation took to execute.
type Event struct {
	Kind       EventKind
	Name       string // buffer label or kernel name
	Bytes      int64  // bytes transferred (transfers only)
	GlobalSize int    // ND-range size (kernels only)
	Queued     time.Duration
	Start      time.Duration
	End        time.Duration
	Wall       time.Duration
}

// Duration returns the modeled device time of the event.
func (e Event) Duration() time.Duration { return e.End - e.Start }

// Queue is a simulated in-order command queue with profiling enabled,
// mirroring cl_command_queue. Every enqueue executes synchronously on the
// host (the simulated device) and advances the queue's modeled timeline
// by the cost model's duration for the operation.
//
// Every event folds into the queue's Profile. The event log — each event
// kept in enqueue order, what Events returns — is on from NewQueue and
// can be turned off (SetEventLog) by a caller that reads only the
// profile, so a run that needs no per-event view copies none out.
type Queue struct {
	ctx *Context
	// views is the argument scratch every launch binds its buffers into
	// (see scratch). The queue is in order — one launch at a time — so a
	// warm launch allocates no argument list.
	views []View

	mu     sync.Mutex
	now    time.Duration
	nolog  bool // SetEventLog(false): fold events into prof only
	events []Event
	prof   Profile
}

// NewQueue creates a profiling command queue on the context, its event
// log on.
func NewQueue(ctx *Context) *Queue {
	return &Queue{ctx: ctx}
}

// SetEventLog turns the per-event log on or off. Events recorded while it
// is off fold into the profile — counts, bytes, modeled and wall times —
// and are not kept.
func (q *Queue) SetEventLog(on bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.nolog = !on
}

// scratch returns the queue's argument scratch, n zero views long. It is
// valid until the next launch or scratch call.
func (q *Queue) scratch(n int) []View {
	if cap(q.views) < n {
		q.views = make([]View, n)
	}
	v := q.views[:n]
	clear(v)
	return v
}

// Context returns the queue's context.
func (q *Queue) Context() *Context { return q.ctx }

// record folds the event into the running profile and, with the log on,
// appends it to the log.
func (q *Queue) record(kind EventKind, name string, bytes int64, n int, modeled, wall time.Duration) Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := Event{
		Kind:       kind,
		Name:       name,
		Bytes:      bytes,
		GlobalSize: n,
		Queued:     q.now,
		Start:      q.now,
		End:        q.now + modeled,
		Wall:       wall,
	}
	q.now = e.End
	if !q.nolog {
		q.events = append(q.events, e)
	}
	q.prof.add(e)
	return e
}

// bind points a buffer at the host's array instead of copying it — the
// simulated device's memory is host memory — and stands for the
// transfer a real device makes (clEnqueueWriteBuffer): the write fault
// point and a host-to-device event with the modeled transfer time and no
// wall time, as no byte moves. src must fill the buffer.
func (q *Queue) bind(dst *Buffer, src []float32) error {
	if len(src) != int(dst.bytes/4) {
		return fmt.Errorf("ocl: bind to %q: %d floats for a buffer of %d", dst.label, len(src), dst.bytes/4)
	}
	if err := q.ctx.faultPoint(FaultWrite, dst.label); err != nil {
		return err
	}
	dst.data, dst.host = src, true
	bytes := int64(len(src)) * 4
	q.record(WriteEvent, dst.label, bytes, 0, q.ctx.dev.transferTime(bytes), 0)
	return nil
}

// ReadBuffer copies the device buffer into dst (clEnqueueReadBuffer) and
// records a device-to-host event. dst must not exceed the buffer.
func (q *Queue) ReadBuffer(dst []float32, src *Buffer) (Event, error) {
	if src.Released() {
		return Event{}, fmt.Errorf("%w: read from %q", ErrReleasedBuffer, src.label)
	}
	data := src.mem()
	if len(dst) > len(data) {
		return Event{}, fmt.Errorf("ocl: read from %q: %d floats exceed buffer size %d", src.label, len(dst), len(data))
	}
	if err := q.ctx.faultPoint(FaultRead, src.label); err != nil {
		return Event{}, err
	}
	start := time.Now()
	copy(dst, data)
	wall := time.Since(start)
	bytes := int64(len(dst)) * 4
	return q.record(ReadEvent, src.label, bytes, 0, q.ctx.dev.transferTime(bytes), wall), nil
}

// take reads the whole buffer back like ReadBuffer — the same fault
// point and event — by handing the caller the buffer's storage instead
// of copying it (see Buffer.handOver).
func (q *Queue) take(src *Buffer) ([]float32, error) {
	if src.Released() {
		return nil, fmt.Errorf("%w: read from %q", ErrReleasedBuffer, src.label)
	}
	if err := q.ctx.faultPoint(FaultRead, src.label); err != nil {
		return nil, err
	}
	start := time.Now()
	data := src.handOver()
	wall := time.Since(start)
	bytes := int64(len(data)) * 4
	q.record(ReadEvent, src.label, bytes, 0, q.ctx.dev.transferTime(bytes), wall)
	return data, nil
}

// Run enqueues the kernel over a global work size of n elements
// (clEnqueueNDRangeKernel with a 1-D range). The kernel body executes in
// parallel on the simulated device; the recorded event carries the
// modeled duration from the device cost model. The buffers are bound
// into the queue's argument scratch, so Run must not be called
// concurrently on one queue.
func (q *Queue) Run(k *Kernel, n int, bufs []*Buffer) (Event, error) {
	if len(k.Passes) == 0 {
		return Event{}, &ArgError{Kernel: k.Name, Index: -1, Reason: "kernel has no executable body"}
	}
	if k.NumBufs > 0 && len(bufs) != k.NumBufs {
		return Event{}, &ArgError{Kernel: k.Name, Index: -1,
			Reason: fmt.Sprintf("got %d buffer arguments, want %d", len(bufs), k.NumBufs)}
	}
	if n < 0 {
		return Event{}, &ArgError{Kernel: k.Name, Index: -1, Reason: fmt.Sprintf("negative global size %d", n)}
	}
	views := q.scratch(len(bufs))
	defer clear(views) // hold no buffer's storage past the launch
	for i, b := range bufs {
		if b == nil {
			return Event{}, &ArgError{Kernel: k.Name, Index: i, Reason: "nil buffer"}
		}
		if b.Released() {
			return Event{}, &ArgError{Kernel: k.Name, Index: i, Reason: fmt.Sprintf("released buffer %q", b.label)}
		}
		views[i] = View{Data: b.mem(), Elems: b.elems, Width: b.width}
		if i < len(k.Needs) && len(views[i].Data) < k.Needs[i].Of(n) {
			return Event{}, &ArgError{Kernel: k.Name, Index: i,
				Reason: fmt.Sprintf("buffer %q holds %d float32s, a launch over %d elements reads %d", b.label, len(views[i].Data), n, k.Needs[i].Of(n))}
		}
	}
	if err := q.ctx.faultPoint(FaultKernel, k.Name); err != nil {
		return Event{}, err
	}
	var wall time.Duration
	for _, pass := range k.Passes {
		wall += q.ctx.dev.execute(n, pass, views)
	}
	return q.record(KernelEvent, k.Name, 0, n, q.ctx.dev.kernelTime(n, k.Cost), wall), nil
}

// Now returns the queue's simulated elapsed device time.
func (q *Queue) Now() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.now
}

// Events returns a copy of the logged events in enqueue order, or nil
// when none were logged.
func (q *Queue) Events() []Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.events) == 0 {
		return nil
	}
	return slices.Clone(q.events)
}

// Profile returns a snapshot of the aggregated event profile.
func (q *Queue) Profile() Profile {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.prof
}

// Reset clears the event log, profile and simulated timeline. The log
// keeps its storage for the next run.
func (q *Queue) Reset() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.now = 0
	q.events = q.events[:0]
	q.prof = Profile{}
}
