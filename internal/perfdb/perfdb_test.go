package perfdb

import (
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dfg/internal/obs"
)

// rec builds a minimal record with a controllable timestamp.
func rec(ts int64, fp, strat string, n int, total int64) EvalRecord {
	return EvalRecord{UnixNS: ts, Fingerprint: fp, Strategy: strat, N: n, TotalNS: total}
}

// TestRecorderConcurrent hammers one recorder from many goroutines and
// checks the accounting: everything accepted is counted, the rings
// retain exactly their capacity, and the overflow is counted as dropped.
func TestRecorderConcurrent(t *testing.T) {
	perShard := 16
	r := NewRecorder(perShard)
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(rec(int64(g*per+i+1), "fp", "vm", 64, 100))
			}
		}()
	}
	wg.Wait()
	if got := r.Recorded(); got != goroutines*per {
		t.Fatalf("Recorded = %d, want %d", got, goroutines*per)
	}
	capacity := perShard * recorderShards
	if got := r.Len(); got != capacity {
		t.Fatalf("Len = %d, want full capacity %d", got, capacity)
	}
	if got := r.Dropped(); got != int64(goroutines*per-capacity) {
		t.Fatalf("Dropped = %d, want %d", got, goroutines*per-capacity)
	}
	snap := r.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("Snapshot len = %d, want %d", len(snap), capacity)
	}
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].UnixNS < snap[j].UnixNS }) {
		t.Fatal("Snapshot not ordered by timestamp")
	}
}

// TestNilRecorder proves the nil recorder is a full no-op (the
// uninstrumented engine path relies on it).
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(rec(1, "fp", "vm", 1, 1))
	if r.Recorded() != 0 || r.Dropped() != 0 || r.Len() != 0 || r.Snapshot() != nil {
		t.Fatal("nil recorder is not a no-op")
	}
}

// TestSnapshotRoundtrip writes a snapshot file and reads it back:
// schema stamped, meta preserved, records intact and ordered.
func TestSnapshotRoundtrip(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{GitRev: "abc123", Device: "CPU", Host: "testhost"}
	recs := []EvalRecord{
		rec(1, "fp1", "fusion", 4096, 1000),
		rec(2, "fp2", "tiered@4096", 64, 500),
	}
	recs[1].Resolved = "vm"
	recs[1].TraceID = "0000abcd-1"
	path, err := WriteFile(dir, meta, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(path), "perfdb-") || !strings.HasSuffix(path, ".jsonl") {
		t.Fatalf("unexpected snapshot name %q", path)
	}
	gotMeta, gotRecs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Schema != Schema {
		t.Fatalf("schema = %q, want %q", gotMeta.Schema, Schema)
	}
	if gotMeta.GitRev != "abc123" || gotMeta.Device != "CPU" || gotMeta.Host != "testhost" {
		t.Fatalf("meta roundtrip lost fields: %+v", gotMeta)
	}
	if gotMeta.CreatedUnixNS == 0 {
		t.Fatal("CreatedUnixNS not stamped")
	}
	if len(gotRecs) != 2 {
		t.Fatalf("got %d records, want 2", len(gotRecs))
	}
	if gotRecs[1].Resolved != "vm" || gotRecs[1].TraceID != "0000abcd-1" {
		t.Fatalf("record roundtrip lost fields: %+v", gotRecs[1])
	}
}

// TestParseForwardCompat checks the reader's tolerance contract: unknown
// line kinds are skipped, a missing meta header is tolerated, a record
// without a batch field loads as unbatched, and any other schema
// version is rejected.
func TestParseForwardCompat(t *testing.T) {
	jsonl := `{"kind":"meta","schema":"dfg.perfdb/v4","git_rev":"x"}
{"kind":"future-kind","whatever":true}
{"kind":"eval","fp":"f","strategy":"vm","n":8,"total_ns":42}
`
	meta, recs, err := Parse([]byte(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	if meta.GitRev != "x" || len(recs) != 1 || recs[0].TotalNS != 42 || recs[0].Batch != 0 {
		t.Fatalf("parse: meta=%+v recs=%+v", meta, recs)
	}

	// Bare records, no meta: tolerated (hand-built fixtures).
	_, recs, err = Parse([]byte(`{"fp":"f","strategy":"vm","n":8,"total_ns":1}` + "\n"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("bare-record parse: %v, %d records", err, len(recs))
	}

	// Any other version, the writer-less v1 included: rejected.
	for _, v := range []string{"v1", "v2", "v3", "v5"} {
		if _, _, err := Parse([]byte(`{"kind":"meta","schema":"dfg.perfdb/` + v + `"}` + "\n")); err == nil {
			t.Fatalf("schema version %s not rejected", v)
		}
	}
}

// TestFlightRecorder walks the postmortem path end to end: a dump
// written from a tracer's recent ring and a perf recorder's last
// records, read back cold — the failing root's error attribute, its
// execute child and trace ID, and the recent records.
func TestFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	perf := NewRecorder(8)
	perf.Record(rec(10, "fp", "fusion", 64, 900))
	tracer := obs.NewTracer(4)
	for i := 0; i < 5; i++ {
		tracer.Start("request").SetAttr("worker", "0").Finish()
	}
	root := tracer.Start("request")
	root.SetAttr("worker", "1").SetAttr("error", "kernel launch: injected fault")
	root.Child("execute").Finish()
	root.Finish()

	path, err := WriteFlight(dir, "breaker-trip", Meta{GitRev: "deadbeef"}, tracer.Last(0), perf.Last(256))
	if err != nil || path == "" {
		t.Fatalf("WriteFlight = %q, %v", path, err)
	}
	d, err := LoadFlight(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema != FlightSchema || d.Reason != "breaker-trip" || d.Meta.GitRev != "deadbeef" {
		t.Fatalf("dump header: %+v", d)
	}
	if len(d.Traces) != 4 {
		t.Fatalf("traces = %d, want the tracer's ring capacity 4", len(d.Traces))
	}
	last := d.Traces[len(d.Traces)-1]
	if last.ID != root.ID() || last.Name != "request" || last.Attr("worker") != "1" {
		t.Fatalf("failing trace: %+v", last)
	}
	if last.Attr("error") == "" || last.Find("execute") == nil {
		t.Fatalf("span tree lost structure: %+v", last)
	}
	if len(d.Recent) != 1 || d.Recent[0].TotalNS != 900 {
		t.Fatalf("recent records: %+v", d.Recent)
	}

	// An empty dir writes nothing.
	if p, err := WriteFlight("", "x", Meta{}, tracer.Last(0), nil); p != "" || err != nil {
		t.Fatalf("dir-less WriteFlight = %q, %v", p, err)
	}
}

// TestCollectMeta sanity-checks the build/host stamp.
func TestCollectMeta(t *testing.T) {
	m := CollectMeta("GPU")
	if m.Schema != Schema || m.Device != "GPU" {
		t.Fatalf("meta: %+v", m)
	}
	if m.GoVersion == "" || m.NumCPU <= 0 {
		t.Fatalf("meta missing runtime identity: %+v", m)
	}
	if m.CreatedUnixNS <= 0 || time.Unix(0, m.CreatedUnixNS).Year() < 2024 {
		t.Fatalf("meta timestamp: %d", m.CreatedUnixNS)
	}
}
