package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dfg/internal/obs"
	"dfg/internal/ocl"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenEvents is a deterministic device-event log: two uploads, one
// fused kernel, one readback, on the modeled in-order timeline.
func goldenEvents() []ocl.Event {
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	return []ocl.Event{
		{Kind: ocl.WriteEvent, Name: "u", Bytes: 4096, Queued: 0, Start: 0, End: us(10), Wall: us(1)},
		{Kind: ocl.WriteEvent, Name: "v", Bytes: 4096, Queued: us(10), Start: us(10), End: us(20), Wall: us(1)},
		{Kind: ocl.KernelEvent, Name: "expr", GlobalSize: 1024, Queued: us(20), Start: us(20), End: us(120), Wall: us(40)},
		{Kind: ocl.ReadEvent, Name: "out", Bytes: 4096, Queued: us(120), Start: us(120), End: us(130), Wall: us(1)},
	}
}

// TestWriteTraceGolden pins the exact Chrome-trace JSON WriteTrace
// emits — event ordering, per-category track assignment, and the
// bytes/global_size args — against a golden file. Regenerate with
// `go test ./internal/metrics -run TestWriteTraceGolden -update`.
func TestWriteTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "NVIDIA Tesla M2050", goldenEvents()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "write_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace JSON drifted from golden:\n got: %s\nwant: %s", got, want)
	}

	// Belt and braces: the golden itself must stay structurally sound.
	var events []map[string]any
	if err := json.Unmarshal(got, &events); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("want 4 events, got %d", len(events))
	}
	wantTID := []float64{0, 0, 1, 2} // write, write, kernel, read
	wantCat := []string{"host-to-device", "host-to-device", "kernel", "device-to-host"}
	for i, e := range events {
		if e["tid"] != wantTID[i] || e["cat"] != wantCat[i] {
			t.Fatalf("event %d on track %v cat %v, want %v/%v", i, e["tid"], e["cat"], wantTID[i], wantCat[i])
		}
	}
	if args := events[2]["args"].(map[string]any); args["global_size"] != "1024" {
		t.Fatalf("kernel args = %v", args)
	}
	if args := events[0]["args"].(map[string]any); args["bytes"] != "4096" {
		t.Fatalf("write args = %v", args)
	}
}

// TestWriteSpanTraces exercises the multi-track pipeline export: one
// process per request, stages on the pipeline track, device events on
// their category tracks, timestamps relative to the earliest root.
func TestWriteSpanTraces(t *testing.T) {
	base := time.Unix(1700000000, 0)
	at := func(us int64) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	mkTrace := func(offset int64) *obs.Span {
		root := &obs.Span{Name: "request", Start: at(offset), End: at(offset + 500)}
		compile := &obs.Span{Name: "compile", Start: at(offset + 10), End: at(offset + 60),
			Attrs: []obs.Attr{{Key: "fingerprint", Value: "abcdef123456"}}}
		compile.Children = []*obs.Span{
			{Name: "parse", Start: at(offset + 11), End: at(offset + 30)},
			{Name: "cache", Start: at(offset + 31), End: at(offset + 59),
				Attrs: []obs.Attr{{Key: "outcome", Value: "hit"}}},
		}
		exec := &obs.Span{Name: "execute", Start: at(offset + 70), End: at(offset + 490)}
		exec.Children = []*obs.Span{
			{Name: "u", Track: "host-to-device", Start: at(offset + 70), End: at(offset + 90),
				Attrs: []obs.Attr{{Key: "bytes", Value: "4096"}}},
			{Name: "expr", Track: "kernel", Start: at(offset + 90), End: at(offset + 400),
				Attrs: []obs.Attr{{Key: "global_size", Value: "1024"}}},
			{Name: "out", Track: "device-to-host", Start: at(offset + 400), End: at(offset + 420)},
		}
		root.Children = []*obs.Span{compile, exec}
		return root
	}

	var buf bytes.Buffer
	if err := WriteSpanTraces(&buf, []*obs.Span{mkTrace(0), nil, mkTrace(1000)}); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("span trace is not valid JSON: %v", err)
	}

	byName := func(pid float64, name string) map[string]any {
		for _, e := range events {
			if e["pid"] == pid && e["name"] == name && e["ph"] == "X" {
				return e
			}
		}
		return nil
	}

	// Two requests -> pids 1 and 3 (position in roots, nil skipped).
	for _, pid := range []float64{1, 3} {
		root := byName(pid, "request")
		if root == nil || root["cat"] != "request" {
			t.Fatalf("pid %v missing request event: %v", pid, root)
		}
		if k := byName(pid, "expr"); k == nil || k["tid"] != float64(2) || k["cat"] != "kernel" {
			t.Fatalf("pid %v kernel event wrong: %v", pid, k)
		}
		if p := byName(pid, "parse"); p == nil || p["tid"] != float64(0) || p["cat"] != "stage" {
			t.Fatalf("pid %v parse event wrong: %v", pid, p)
		}
	}
	// Relative timebase: first root starts at ts 0, second at +1000µs.
	if ts := byName(1, "request")["ts"].(float64); ts != 0 {
		t.Fatalf("first request ts = %v, want 0", ts)
	}
	if ts := byName(3, "request")["ts"].(float64); ts != 1000 {
		t.Fatalf("second request ts = %v, want 1000", ts)
	}
	// Metadata: process named with the fingerprint, tracks named.
	var sawProc, sawThread bool
	for _, e := range events {
		if e["ph"] != "M" {
			continue
		}
		args := e["args"].(map[string]any)
		if e["name"] == "process_name" && args["name"] == "request abcdef123456" {
			sawProc = true
		}
		if e["name"] == "thread_name" && args["name"] == "host-to-device" {
			sawThread = true
		}
	}
	if !sawProc || !sawThread {
		t.Fatalf("metadata events missing (proc=%v thread=%v)", sawProc, sawThread)
	}
	// Cache-outcome annotation survives into args.
	if c := byName(1, "cache"); c["args"].(map[string]any)["outcome"] != "hit" {
		t.Fatalf("cache args = %v", c["args"])
	}
}

// TestWriteSpanTracesStageSum: a span its stages partition exactly
// renders as the sum of their rendered durations, so /trace keeps the
// partition through the rounding to float microseconds; a gap or an
// overlap between two stages renders the span's own end−start, so it
// shows.
func TestWriteSpanTracesStageSum(t *testing.T) {
	base := time.Unix(1700000000, 0)
	at := func(ns int64) time.Time { return base.Add(time.Duration(ns)) }
	mk := func(shift time.Duration) *obs.Span {
		root := obs.NewTracer(1).StartAt("request", at(0))
		root.Stage("queue-wait", at(1_234_567))
		root.Stage("bind", at(2_345_679)).Start = at(1_234_567).Add(shift)
		root.Stage("execute", at(9_876_543_211))
		root.End = at(9_876_543_211)
		return root
	}
	render := func(root *obs.Span) (wall, stages float64) {
		var buf bytes.Buffer
		if err := WriteSpanTraces(&buf, []*obs.Span{root}); err != nil {
			t.Fatal(err)
		}
		var events []struct {
			Name, Cat, Ph string
			Dur           float64
		}
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			switch {
			case e.Ph != "X":
			case e.Cat == "request":
				wall = e.Dur
			default:
				stages += e.Dur
			}
		}
		return wall, stages
	}
	if wall, stages := render(mk(0)); wall != stages {
		t.Errorf("exact partition: request renders %vµs, its stages sum to %vµs", wall, stages)
	}
	for _, shift := range []time.Duration{50 * time.Microsecond, -50 * time.Microsecond} {
		root := mk(shift)
		wall, stages := render(root)
		if want := float64(root.Duration().Nanoseconds()) / 1e3; wall != want {
			t.Errorf("stage shifted %v: request renders %vµs, want its end−start %vµs", shift, wall, want)
		}
		if gap, want := wall-stages, float64(shift.Microseconds()); math.Abs(gap-want) > 0.01 {
			t.Errorf("stage shifted %v: request %vµs, stages %vµs: uncovered %vµs, want %vµs", shift, wall, stages, gap, want)
		}
	}
}
