package perfdb

import (
	"encoding/json"
	"os"
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
	jsonl := `{"kind":"meta","schema":"dfg.perfdb/v2","git_rev":"x"}
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
	for _, v := range []string{"v1", "v3"} {
		if _, _, err := Parse([]byte(`{"kind":"meta","schema":"dfg.perfdb/` + v + `"}` + "\n")); err == nil {
			t.Fatalf("schema version %s not rejected", v)
		}
	}
}

// sampleSet builds one key's worth of samples with the given alloc
// count.
func sampleSet(allocs int64) []Sample {
	return []Sample{
		{Name: "q", Strategy: "fusion", Opt: "O2", N: 4096, Counts: map[string]int64{"allocs": allocs, "kernels": 3}},
		{Name: "q", Strategy: "fusion", Opt: "O2", N: 4096, Counts: map[string]int64{"allocs": allocs, "kernels": 3}},
	}
}

// TestCompareGate covers the regression gate's acceptance criteria: two
// identical runs report zero regressions, one extra warm-path allocation
// fails, and CountTol is what lets it through.
func TestCompareGate(t *testing.T) {
	base := Aggregate(sampleSet(3))

	// Same build, same numbers: clean verdict.
	v := Compare(base, Aggregate(sampleSet(3)), CompareOptions{})
	if !v.OK() {
		t.Fatalf("identical runs: %s", v.Markdown(true))
	}
	if v.Compared != 2 {
		t.Fatalf("identical runs compared %d metrics, want allocs and kernels", v.Compared)
	}

	// One extra allocation: count regression at default tolerance.
	v = Compare(base, Aggregate(sampleSet(4)), CompareOptions{})
	if v.OK() {
		t.Fatalf("+1 alloc passed the gate: %s", v.Markdown(true))
	}
	if regs := v.Regressions(); len(regs) != 1 || regs[0].Metric != "allocs" {
		t.Fatalf("+1 alloc regressions = %+v, want one allocs", regs)
	}
	if v = Compare(base, Aggregate(sampleSet(4)), CompareOptions{CountTol: 1}); !v.OK() {
		t.Fatalf("+1 alloc within CountTol 1 failed the gate: %s", v.Markdown(true))
	}
}

func TestSizeBucket(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 2, 3: 4, 4096: 4096, 4097: 8192}
	for n, want := range cases {
		if got := SizeBucket(n); got != want {
			t.Fatalf("SizeBucket(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestLoadAnySniffing feeds LoadAny both persisted formats, and a JSON
// document that is neither.
func TestLoadAnySniffing(t *testing.T) {
	dir := t.TempDir()

	// perfdb JSONL.
	jsonl, err := WriteFile(dir, Meta{GitRev: "r1"}, []EvalRecord{rec(1, "fp", "vm", 64, 100)})
	if err != nil {
		t.Fatal(err)
	}
	samples, meta, err := LoadAny(jsonl)
	if err != nil || len(samples) != 1 || meta.GitRev != "r1" {
		t.Fatalf("JSONL: %v, %d samples, meta %+v", err, len(samples), meta)
	}
	if _, ok := samples[0].Counts["kernels"]; !ok || samples[0].Name != "fp" {
		t.Fatalf("JSONL sample: %+v", samples[0])
	}

	// A document whose cases are not warm/cold cases (the sweep JSON
	// dfg-bench used to write) is refused, not read as zeros.
	sweep := filepath.Join(dir, "sweep.json")
	doc := map[string]any{
		"cases": []map[string]any{
			{"expr": "q", "opt": "O2", "strategy": "fusion", "cells": 4096, "wall_ns": 123456, "kernel_launches": 2},
		},
	}
	data, _ := json.MarshalIndent(doc, "", " ")
	if err := os.WriteFile(sweep, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err = LoadAny(sweep); err == nil {
		t.Fatal("a document without warm/cold cases loaded")
	}

	// dfg-bench -repeat warm/cold JSON.
	wc := filepath.Join(dir, "warmcold.json")
	doc = map[string]any{
		"meta":       map[string]any{"git_rev": "r2"},
		"warm_evals": 3,
		"cases": []map[string]any{
			{"expr": "q", "strategy": "vm", "cells": 13824, "cold_allocs": 7, "warm_allocs": 0, "cold_device_writes": 4, "warm_device_writes": 0},
		},
	}
	data, _ = json.MarshalIndent(doc, "", " ")
	if err := os.WriteFile(wc, data, 0o644); err != nil {
		t.Fatal(err)
	}
	samples, meta, err = LoadAny(wc)
	if err != nil || len(samples) != 1 || meta.GitRev != "r2" {
		t.Fatalf("warmcold: %v, %d samples, meta %+v", err, len(samples), meta)
	}
	s := samples[0]
	if s.Counts["cold_allocs"] != 7 || s.Counts["warm_allocs"] != 0 {
		t.Fatalf("warmcold sample: %+v", s)
	}
}

// TestFlightRecorder walks the postmortem path end to end: ring
// wrap-around, dump on trigger, and a cold read of the dump including
// the failing request's span tree and the recent perf records.
func TestFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	perf := NewRecorder(8)
	perf.Record(rec(10, "fp", "fusion", 64, 900))
	tracer := obs.NewTracer(8)
	f := NewFlightRecorder(dir, 4, Meta{GitRev: "deadbeef"}, perf)

	for i := 0; i < 5; i++ {
		f.Note(FlightEntry{UnixNS: int64(i + 1), Worker: 0, Expr: "ok", N: 64, DurNS: 100})
	}
	root := tracer.Start("request")
	root.SetAttr("error", "kernel launch: injected fault")
	root.Child("execute").Finish()
	root.Finish()
	f.Note(FlightEntry{
		UnixNS: 100, Worker: 1, Expr: "bad", N: 64,
		TraceID: root.ID(), Err: "kernel launch: injected fault", DurNS: 500, Span: root,
	})

	path := f.Dump("breaker-trip")
	if path == "" {
		t.Fatalf("Dump returned no path (lastErr=%q)", f.LastError())
	}
	if f.Dumped() != 1 {
		t.Fatalf("Dumped = %d, want 1", f.Dumped())
	}

	d, err := LoadFlight(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "breaker-trip" || d.Meta.GitRev != "deadbeef" {
		t.Fatalf("dump header: %+v", d)
	}
	if len(d.Entries) != 4 {
		t.Fatalf("entries = %d, want ring capacity 4", len(d.Entries))
	}
	errs := d.EntryErrs()
	if len(errs) != 1 || errs[0].TraceID != root.ID() {
		t.Fatalf("EntryErrs = %+v", errs)
	}
	sp := errs[0].Span
	if sp == nil || sp.Name != "request" {
		t.Fatalf("failing entry's span tree missing: %+v", sp)
	}
	if sp.Attr("error") == "" || sp.Find("execute") == nil {
		t.Fatalf("span tree lost structure: %+v", sp)
	}
	if len(d.Recent) != 1 || d.Recent[0].TotalNS != 900 {
		t.Fatalf("recent records: %+v", d.Recent)
	}

	// A dir-less flight recorder notes but never dumps.
	quiet := NewFlightRecorder("", 2, Meta{}, nil)
	quiet.Note(FlightEntry{Worker: 9})
	if p := quiet.Dump("x"); p != "" {
		t.Fatalf("dir-less Dump wrote %q", p)
	}
	// The nil flight recorder is a no-op.
	var nilF *FlightRecorder
	nilF.Note(FlightEntry{})
	if nilF.Dump("x") != "" || nilF.Dumped() != 0 {
		t.Fatal("nil FlightRecorder is not a no-op")
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
