package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one call into a layer, timed by the benchmark from outside
// the call. Spans of one operation share Op; Parent is the ID of the
// span that caused this one, -1 for the operation itself.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps one goroutine's spans in memory. IDs are indices into
// spans offset by base, so recorders of concurrent clients never collide.
type recorder struct {
	epoch time.Time
	base  int
	op    int
	spans []span
}

func newRecorder(epoch time.Time, base, room int) *recorder {
	return &recorder{epoch: epoch, base: base, op: base, spans: make([]span, 0, room)}
}

// begin opens a span now. A parent of -1 starts a new operation.
func (r *recorder) begin(name string, parent int) int {
	if parent < 0 {
		r.op++
	}
	id := r.base + len(r.spans)
	r.spans = append(r.spans, span{Op: r.op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.epoch))})
	return id
}

// end closes a span now and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-r.base]
	s.End = int64(time.Since(r.epoch))
	return time.Duration(s.dur())
}

// place records a child whose duration the library measured itself (a
// device event's wall time, a response's queue wait) but whose start it
// did not report: the child is laid inside its parent at the given
// offset. Only its duration is a measurement.
func (r *recorder) place(name string, parent int, offset, d time.Duration) {
	p := r.spans[parent-r.base]
	start := p.Start + int64(offset)
	r.spans = append(r.spans, span{Op: p.Op, ID: r.base + len(r.spans), Parent: parent, Name: name, Start: start, End: start + int64(d)})
}

// layerTimes aggregates recorders: per span name, every duration and
// every self time in µs, plus the first spans seen for the trace file.
type layerTimes struct {
	durs  map[string][]float64
	selfs map[string][]float64
	kept  []span
	total int
}

// keepSpans bounds the trace file; the statistics use every span.
const keepSpans = 20000

func newLayerTimes() *layerTimes {
	return &layerTimes{durs: map[string][]float64{}, selfs: map[string][]float64{}}
}

// selfTimes returns each span's duration minus the part its direct
// children cover, indexed like spans. IDs must be base+index.
func selfTimes(spans []span, base int) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent-base] -= s.dur()
		}
	}
	return self
}

// add folds one recorder in and empties it. It fails if the spans of
// any operation do not sum to the operation: self times, negative ones
// clamped to zero, must total the operation's span within 5 % — which
// they do exactly unless children overrun their parent.
func (lt *layerTimes) add(r *recorder) error {
	self := selfTimes(r.spans, r.base)
	sum := map[int]int64{}
	root := map[int]int64{}
	for i, s := range r.spans {
		lt.durs[s.Name] = append(lt.durs[s.Name], float64(s.dur())/1e3)
		lt.selfs[s.Name] = append(lt.selfs[s.Name], float64(self[i])/1e3)
		if self[i] > 0 {
			sum[s.Op] += self[i]
		}
		if s.Parent < 0 {
			root[s.Op] = s.dur()
		}
	}
	for op, total := range root {
		if d := sum[op] - total; float64(d) > 0.05*float64(total) {
			return fmt.Errorf("trace: spans of op %d sum to %d ns, the op took %d ns", op, sum[op], total)
		}
	}
	if room := keepSpans - len(lt.kept); room > 0 {
		lt.kept = append(lt.kept, r.spans[:min(room, len(r.spans))]...)
	}
	lt.total += len(r.spans)
	r.base += len(r.spans)
	r.spans = r.spans[:0]
	return nil
}

// write stores the kept spans as <dir>/trace-<workload>.json.
func (lt *layerTimes) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		SpansTotal int    `json:"spans_total"`
		Spans      []span `json:"spans"`
	}{workload, seed, lt.total, lt.kept})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
