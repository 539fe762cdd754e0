package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"dfg/internal/obs"
	"dfg/internal/ocl"
)

// traceEvent is one Chrome-trace "complete" event (the chrome://tracing
// and Perfetto JSON array format).
type traceEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`  // microseconds
	Dur   float64           `json:"dur"` // microseconds
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteTrace renders a queue's device event log as Chrome-trace JSON, so
// a run's modeled timeline (transfers vs kernels) can be inspected in
// chrome://tracing or Perfetto. Each event category gets its own track:
// tid 0 = host-to-device, tid 1 = kernels, tid 2 = device-to-host.
func WriteTrace(w io.Writer, deviceName string, events []ocl.Event) error {
	out := make([]traceEvent, 0, len(events))
	for _, e := range events {
		var cat string
		var tid int
		switch e.Kind {
		case ocl.WriteEvent:
			cat, tid = "host-to-device", 0
		case ocl.KernelEvent:
			cat, tid = "kernel", 1
		case ocl.ReadEvent:
			cat, tid = "device-to-host", 2
		}
		args := map[string]string{"device": deviceName}
		if e.Bytes > 0 {
			args["bytes"] = fmt.Sprintf("%d", e.Bytes)
		}
		if e.GlobalSize > 0 {
			args["global_size"] = fmt.Sprintf("%d", e.GlobalSize)
		}
		out = append(out, traceEvent{
			Name:  e.Name,
			Cat:   cat,
			Phase: "X",
			TS:    float64(e.Start.Nanoseconds()) / 1e3,
			Dur:   float64(e.Duration().Nanoseconds()) / 1e3,
			PID:   1,
			TID:   tid,
			Args:  args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Track layout for pipeline span traces: the request's pipeline stages
// render on track 0, the simulated device events (which live on the
// modeled device timeline, not host wall time) on one track per
// category — the same three categories WriteTrace uses.
var spanTracks = []struct {
	name string
	tid  int
}{
	{"pipeline", 0},
	{"host-to-device", 1},
	{"kernel", 2},
	{"device-to-host", 3},
}

// spanTrackID maps a span's Track label to its timeline track.
func spanTrackID(track string) int {
	for _, t := range spanTracks {
		if t.name == track {
			return t.tid
		}
	}
	return 0 // unknown tracks fold into the pipeline track
}

// WriteSpanTraces generalizes WriteTrace to whole pipeline traces: it
// renders request span trees (obs.Span) as multi-track Chrome-trace
// JSON for chrome://tracing or Perfetto. Each request becomes one
// process (pid = position in roots, 1-based) named after its root span
// and fingerprint; within a process, pipeline stages occupy track 0 and
// attached device events their per-category tracks. Timestamps are
// microseconds relative to the earliest root, so concurrent requests
// line up on one timeline. Nil roots are skipped.
func WriteSpanTraces(w io.Writer, roots []*obs.Span) error {
	var base time.Time
	for _, r := range roots {
		if r != nil && (base.IsZero() || r.Start.Before(base)) {
			base = r.Start
		}
	}
	out := make([]traceEvent, 0, 16*len(roots))
	for i, root := range roots {
		if root == nil {
			continue
		}
		pid := i + 1
		procName := root.Name
		if fp := root.Find("compile").Attr("fingerprint"); fp != "" {
			procName = fmt.Sprintf("%s %s", root.Name, fp)
		}
		out = append(out, traceEvent{
			Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]string{"name": procName},
		})
		for _, t := range spanTracks {
			out = append(out, traceEvent{
				Name: "thread_name", Phase: "M", PID: pid, TID: t.tid,
				Args: map[string]string{"name": t.name},
			})
		}
		out = appendSpanEvents(out, root, pid, base, true)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// micros renders a duration as float microseconds.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// tiles reports whether stages partition [start, end] exactly: the
// first starts at start, each next at the instant its predecessor
// ended, and the last ends at end.
func tiles(stages []*obs.Span, start, end time.Time) bool {
	if len(stages) == 0 {
		return false
	}
	at := start
	for _, st := range stages {
		if !st.Start.Equal(at) {
			return false
		}
		at = st.End
	}
	return at.Equal(end)
}

// appendSpanEvents emits one span and its subtree as complete events.
func appendSpanEvents(out []traceEvent, s *obs.Span, pid int, base time.Time, isRoot bool) []traceEvent {
	cat := "stage"
	if isRoot {
		cat = "request"
	} else if s.Track != "" {
		cat = s.Track
	}
	var args map[string]string
	if len(s.Attrs) > 0 {
		args = make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
	}
	end := s.End
	if end.IsZero() { // unfinished spans render as instants
		end = s.Start
	}
	dur := micros(end.Sub(s.Start))
	if st := s.Stages(); tiles(st, s.Start, end) {
		// The stages partition the span exactly: its duration renders as
		// the sum of theirs, in order, so the partition survives the
		// rounding to float microseconds instead of missing it by an ulp.
		// A gap or overlap anywhere renders end−start, and shows.
		dur = 0
		for _, c := range st {
			dur += micros(c.End.Sub(c.Start))
		}
	}
	out = append(out, traceEvent{
		Name:  s.Name,
		Cat:   cat,
		Phase: "X",
		TS:    micros(s.Start.Sub(base)),
		Dur:   dur,
		PID:   pid,
		TID:   spanTrackID(s.Track),
		Args:  args,
	})
	for _, c := range s.Children {
		out = appendSpanEvents(out, c, pid, base, false)
	}
	return out
}
