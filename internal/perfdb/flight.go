package perfdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dfg/internal/obs"
)

// FlightSchema identifies the flight dump format. v2 carries the
// tracer's own recent traces where v1 kept a second request ring; v3
// embeds perfdb/v4 records.
const FlightSchema = "dfg.flight/v3"

// SpanDump is the JSON form of a span tree in a flight dump.
type SpanDump struct {
	ID       string      `json:"id,omitempty"` // the trace ID, on roots
	Name     string      `json:"name"`
	Track    string      `json:"track,omitempty"`
	StartNS  int64       `json:"start_ns"`
	DurNS    int64       `json:"dur_ns"`
	Attrs    [][2]string `json:"attrs,omitempty"`
	Children []SpanDump  `json:"children,omitempty"`
}

// DumpSpan converts a finished span tree to its serialisable form.
func DumpSpan(s *obs.Span) *SpanDump {
	if s == nil {
		return nil
	}
	d := &SpanDump{
		ID:      s.ID(),
		Name:    s.Name,
		Track:   s.Track,
		StartNS: s.Start.UnixNano(),
		DurNS:   s.End.Sub(s.Start).Nanoseconds(),
	}
	for _, a := range s.Attrs {
		d.Attrs = append(d.Attrs, [2]string{a.Key, a.Value})
	}
	for _, c := range s.Children {
		d.Children = append(d.Children, *DumpSpan(c))
	}
	return d
}

// Attr returns the named attribute from a dumped span ("" if absent).
func (d *SpanDump) Attr(key string) string {
	if d == nil {
		return ""
	}
	for _, a := range d.Attrs {
		if a[0] == key {
			return a[1]
		}
	}
	return ""
}

// Find returns the first dumped span with the given name, depth-first.
func (d *SpanDump) Find(name string) *SpanDump {
	if d == nil {
		return nil
	}
	if d.Name == name {
		return d
	}
	for i := range d.Children {
		if m := d.Children[i].Find(name); m != nil {
			return m
		}
	}
	return nil
}

// FlightDump is the on-disk postmortem artifact: the trigger, the
// build/host identity, the recent finished traces (root span trees,
// oldest first) and the most recent EvalRecords.
type FlightDump struct {
	Schema   string       `json:"schema"`
	Reason   string       `json:"reason"`
	DumpedNS int64        `json:"dumped_ns"`
	Meta     Meta         `json:"meta"`
	Traces   []*SpanDump  `json:"traces"`
	Recent   []EvalRecord `json:"recent,omitempty"`
}

// WriteFlight writes a flight dump into dir (created if needed) as
// flight-<ms>-<seq>-<reason>.json and returns the path. roots are
// finished trace roots — immutable, so serialising them is race-free.
// An empty dir writes nothing and returns ("", nil).
func WriteFlight(dir, reason string, meta Meta, roots []*obs.Span, recent []EvalRecord) (string, error) {
	if dir == "" {
		return "", nil
	}
	dump := FlightDump{
		Schema:   FlightSchema,
		Reason:   reason,
		DumpedNS: time.Now().UnixNano(),
		Meta:     meta,
		Traces:   make([]*SpanDump, len(roots)),
		Recent:   recent,
	}
	for i, r := range roots {
		dump.Traces[i] = DumpSpan(r)
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("flight-%d-%d-%s.json", time.Now().UnixMilli(), flushSeq.Add(1), sanitize(reason))
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// sanitize keeps dump reasons filename-safe.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "dump"
	}
	return string(out)
}

// LoadFlight reads a flight dump back, rejecting any other schema.
func LoadFlight(path string) (FlightDump, error) {
	var d FlightDump
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != FlightSchema {
		return d, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, FlightSchema)
	}
	return d, nil
}
