package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a smoke run re-executes itself for a fresh-process set-up timing.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-setup-only" {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

func TestQuantileAndMinimumSamples(t *testing.T) {
	v := make([]float64, 401)
	for i := range v {
		v[i] = float64(400 - i) // unsorted on purpose
	}
	got, err := p05(v, minSamples)
	if err != nil || got != 20 {
		t.Fatalf("p05 of 0..400 = %v, %v; want 20", got, err)
	}
	if _, err := p05(v[:minSamples-1], minSamples); err == nil {
		t.Fatal("p05 accepted fewer than the minimum samples")
	}
	if q := quantile([]float64{1, 2, 3, 4}, 0.5); q != 2.5 {
		t.Fatalf("median of 1..4 = %v", q)
	}
	sorted := sortedCopy(v)
	if q, val := topPercentile(sorted); val != 390 || math.Abs(q-0.975) > 1e-12 {
		t.Fatalf("top percentile = %v at %v; want 390 at 0.975 (ten samples beyond)", val, q)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Fatalf("spread = %v, want 1", s)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// op [0,100): bind [0,10), execute [10,90) with placed kernel 60 and
	// read 10 inside it.
	r := newRecorder(time.Now(), 7, 8)
	r.spans = []span{
		{Op: 1, ID: 7, Parent: -1, Name: "op", Start: 0, End: 100},
		{Op: 1, ID: 8, Parent: 7, Name: "bind", Start: 0, End: 10},
		{Op: 1, ID: 9, Parent: 7, Name: "execute", Start: 10, End: 90},
	}
	r.place("kernel", 9, 0, 60)
	r.place("read", 9, 60, 10)
	self := selfTimes(r.spans, r.base)
	want := []int64{10, 10, 10, 60, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("self times %v, want %v", self, want)
		}
	}
	if k := r.spans[3]; k.Start != 10 || k.End != 70 || k.Op != 1 {
		t.Fatalf("placed span %+v", k)
	}
	lt := newLayerTimes()
	if err := lt.add(r); err != nil {
		t.Fatal(err)
	}
	if got := lt.selfs["execute"]; len(got) != 1 || got[0] != 0.010 {
		t.Fatalf("execute self %v µs, want [0.010]", got)
	}
	if len(r.spans) != 0 || r.base != 12 || lt.total != 5 {
		t.Fatalf("recorder not emptied: %d spans, base %d, total %d", len(r.spans), r.base, lt.total)
	}

	// A child that overruns its parent by more than 5 % is refused.
	r.spans = []span{
		{Op: 2, ID: 12, Parent: -1, Name: "op", Start: 0, End: 100},
		{Op: 2, ID: 13, Parent: 12, Name: "execute", Start: 0, End: 110},
	}
	if err := lt.add(r); err == nil {
		t.Fatal("spans summing to 110 % of their op were accepted")
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"small_hot", "cold_compile", "serve_closed"} {
		sp, _ := specByName(name)
		a, err := generate(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(sp, 3)
		c, _ := generate(sp, 4)
		if a.hash != b.hash || a.variant(5).text != b.variant(5).text {
			t.Errorf("%s: same seed, different inputs", name)
		}
		for k := range a.hot {
			if a.hot[k].text != b.hot[k].text {
				t.Errorf("%s: same seed, different text %d", name, k)
			}
		}
		for cl := range a.mix {
			if string(a.mix[cl]) != string(b.mix[cl]) {
				t.Errorf("%s: same seed, different mix order", name)
			}
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", name)
		}
		if a.variant(5).text == a.variant(6).text || a.variant(5).text == c.variant(5).text {
			t.Errorf("%s: cold variants repeat", name)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: file has %q, benchmark %q", i, w.Name, specs[i].name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("file lists %d+%d metrics, benchmark %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: file %+v, benchmark %+v", i, m, d)
		}
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: file %+v, benchmark %+v", i, m, d)
		}
	}
}

func metricNames(r *report) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload for 200 ms end to end — set-up child,
// verification, warm-up, window — and small_hot traced, and checks each
// report carries exactly the metric names BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	window := 200 * time.Millisecond
	for _, sp := range specs {
		o := options{workload: sp.name, seed: 1, seconds: window.Seconds(), allowShort: true, out: t.TempDir()}
		in, err := generate(sp, o.seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runEndToEnd(in, window, o)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: report %+v", sp.name, rep)
		}
		if got, want := metricNames(rep), defNames(endToEnd); !sameNames(got, want) {
			t.Errorf("%s: metrics %v, want %v", sp.name, got, want)
		}
		for name, m := range rep.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s/%s = %v", sp.name, name, m.Value)
			}
		}
		if sp.name != "small_hot" {
			continue
		}
		o.trace = 1
		rep, err = runTraced(in, window, o)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if got, want := metricNames(rep), defNames(perLayer); !sameNames(got, want) {
			t.Errorf("%s traced: metrics %v, want %v", sp.name, got, want)
		}
		if _, err := os.Stat(o.out + "/trace-small_hot.json"); err != nil {
			t.Error(err)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "eval_p05_us", better: "lower", bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 100, 101, 99, 100, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		new  []float64
		want string
	}{
		{shift(1.2), "worse"},
		{shift(0.8), "better"},
		{shift(1.01), "same"},
		{[]float64{80, 130, 90, 125, 85, 120, 95, 128, 82, 118}, "unresolved"},
	} {
		if got := verdict(lower, base, c.new); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.new, got, c.want)
		}
	}
	higher := metricDef{name: "ok_share", better: "higher", bound: 0.001}
	if got := verdict(higher, []float64{1, 1, 1}, []float64{0.9, 0.9, 0.9}); got != "worse" {
		t.Errorf("dropping ok_share judged %s", got)
	}
}
