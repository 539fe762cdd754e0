package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("eval")
	if sp != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	// Every span method must absorb the nil receiver.
	c := sp.Child("parse")
	if c != nil {
		t.Fatal("nil span Child must return nil")
	}
	sp.SetAttr("k", "v")
	sp.Event("w", "kernel", time.Now(), time.Now())
	sp.Finish()
	if sp.Duration() != 0 || sp.Attr("k") != "" || sp.Find("x") != nil {
		t.Fatal("nil span accessors must return zero values")
	}
	if got := tr.Last(10); got != nil {
		t.Fatal("nil tracer Last must be nil")
	}
	tr.SetSlow(time.Second, nil)
}

func TestSpanTree(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start("eval").SetAttr("strategy", "fusion")
	compile := root.Child("compile")
	parse := compile.Child("parse")
	parse.Finish()
	compile.SetAttr("outcome", "miss")
	compile.Finish()
	exec := root.Child("execute")
	exec.Event("u", "host-to-device", root.Start, root.Start.Add(time.Millisecond),
		Attr{Key: "bytes", Value: "4096"})
	exec.Finish()
	root.Finish()

	if root.Duration() <= 0 {
		t.Fatal("finished root must have positive duration")
	}
	if root.Find("parse") != parse || root.Find("nope") != nil {
		t.Fatal("Find walked the tree wrong")
	}
	if got := root.Attr("strategy"); got != "fusion" {
		t.Fatalf("Attr = %q", got)
	}
	got := tr.Last(1)
	if len(got) != 1 || got[0] != root {
		t.Fatalf("Last(1) = %v", got)
	}

	var sb strings.Builder
	root.WriteText(&sb)
	text := sb.String()
	for _, want := range []string{"eval", "  compile", "    parse", "[host-to-device]", "bytes=4096"} {
		if !strings.Contains(text, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, text)
		}
	}
}

func TestSpanFinishIdempotent(t *testing.T) {
	tr := NewTracer(4)
	root := tr.Start("eval")
	root.Finish()
	end := root.End
	root.Finish()
	if root.End != end {
		t.Fatal("second Finish must not restamp End")
	}
	if got := tr.Last(0); len(got) != 1 {
		t.Fatalf("double Finish published %d traces", len(got))
	}
}

func TestTracerRingOverwrites(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		sp := tr.Start("r")
		sp.SetAttr("i", string(rune('0'+i)))
		sp.Finish()
	}
	got := tr.Last(0)
	if len(got) != 3 {
		t.Fatalf("ring kept %d, want 3", len(got))
	}
	// Oldest first: traces 2, 3, 4 survive.
	for i, sp := range got {
		if want := string(rune('2' + i)); sp.Attr("i") != want {
			t.Fatalf("ring[%d] = %q, want %q", i, sp.Attr("i"), want)
		}
	}
	if got := tr.Last(2); len(got) != 2 || got[1].Attr("i") != "4" {
		t.Fatalf("Last(2) wrong: %v", got)
	}
}

func TestSlowCapture(t *testing.T) {
	tr := NewTracer(8)
	var mu sync.Mutex
	var logged []*Span
	tr.SetSlow(10*time.Millisecond, func(sp *Span) {
		mu.Lock()
		logged = append(logged, sp)
		mu.Unlock()
	})

	fast := tr.Start("fast")
	fast.Finish()
	slow := tr.Start("slow")
	slow.Start = slow.Start.Add(-20 * time.Millisecond) // backdate instead of sleeping
	slow.Finish()

	if got := tr.Kept(0); len(got) != 1 || got[0] != slow {
		t.Fatalf("kept ring = %v", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || logged[0] != slow {
		t.Fatalf("slow hook saw %v", logged)
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", Labels{"outcome": "ok"})
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: monotone
	if c.Value() != 3 {
		t.Fatalf("counter = %d", c.Value())
	}
	if again := r.Counter("reqs_total", "requests", Labels{"outcome": "ok"}); again != c {
		t.Fatal("series must be memoized")
	}
	other := r.Counter("reqs_total", "requests", Labels{"outcome": "err"})
	if other == c || other.Value() != 0 {
		t.Fatal("distinct labels must get distinct series")
	}

	// Nil registry: everything is a no-op but never panics.
	var nr *Registry
	nr.Counter("x", "", nil).Inc()
	nr.Histogram("z", "", nil).Observe(time.Second)
	nr.GaugeFunc("w", "", nil, func() float64 { return 1 })
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a histogram must panic")
		}
	}()
	r.Histogram("m", "", nil)
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", nil)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 100 observations of ~1ms, 10 of ~100ms.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	if h.Count() != 110 {
		t.Fatalf("count = %d", h.Count())
	}
	if want := 100*time.Millisecond + time.Second; time.Duration(h.sumNS.Load()) != want {
		t.Fatalf("sum = %v, want %v", time.Duration(h.sumNS.Load()), want)
	}
	p50 := h.Quantile(0.5)
	if p50 < 512*time.Microsecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms (one log2 bucket of slack)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 64*time.Millisecond || p99 > 256*time.Millisecond {
		t.Fatalf("p99 = %v, want ~100ms", p99)
	}
	if h.Quantile(1) < p99 {
		t.Fatal("quantiles must be monotone")
	}
	// Overflow bucket: huge values neither panic nor vanish.
	h.Observe(time.Hour)
	if h.Quantile(1) < time.Second {
		t.Fatalf("max quantile after 1h observation = %v", h.Quantile(1))
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("dfg_requests_total", "Requests by outcome.", Labels{"outcome": "served"}).Add(12)
	r.Counter("dfg_requests_total", "Requests by outcome.", Labels{"outcome": "failed"}).Add(3)
	r.GaugeFunc("dfg_queue_depth", "Queued requests.", nil, func() float64 { return 4 })
	r.GaugeFunc("dfg_uptime_seconds", "Uptime.", nil, func() float64 { return 1.5 })
	r.CounterFunc("dfg_cache_hits_total", "Cache hits.", nil, func() float64 { return 9 })
	h := r.Histogram("dfg_eval_seconds", "Eval latency.", Labels{"strategy": "fusion"})
	h.Observe(3 * time.Millisecond)

	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE dfg_requests_total counter",
		`dfg_requests_total{outcome="served"} 12`,
		`dfg_requests_total{outcome="failed"} 3`,
		"# TYPE dfg_queue_depth gauge",
		"dfg_queue_depth 4",
		"dfg_uptime_seconds 1.5",
		"# TYPE dfg_cache_hits_total counter",
		"dfg_cache_hits_total 9",
		"# TYPE dfg_eval_seconds histogram",
		`dfg_eval_seconds_bucket{strategy="fusion",le="+Inf"} 1`,
		`dfg_eval_seconds_count{strategy="fusion"} 1`,
		`dfg_eval_seconds_sum{strategy="fusion"} 0.003`,
		"# HELP dfg_requests_total Requests by outcome.",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets: the 4.096ms bound already includes the 3ms obs.
	if !strings.Contains(out, `dfg_eval_seconds_bucket{strategy="fusion",le="0.004096"} 1`) {
		t.Fatalf("bucket bounds wrong:\n%s", out)
	}
	// Deterministic: a second render is byte-identical.
	var sb2 strings.Builder
	if err := WritePrometheus(&sb2, r); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatal("exposition must be deterministic")
	}
	if err := WritePrometheus(&sb, nil); err != nil {
		t.Fatal("nil registry must write nothing, not fail")
	}
}

// TestConcurrency exercises publish/scrape/observe under the race
// detector.
func TestConcurrency(t *testing.T) {
	tr := NewTracer(16)
	tr.SetSlow(time.Nanosecond, func(sp *Span) { _ = sp.Duration() })
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Start("eval")
				sp.Child("parse").Finish()
				sp.Finish()
				r.Counter("c", "", Labels{"g": "x"}).Inc()
				r.Histogram("h", "", nil).Observe(time.Microsecond)
				// New label sets append to family state mid-scrape —
				// the engine does this per fingerprint at eval time, so
				// exposition must tolerate concurrent series creation.
				r.Histogram("h", "", Labels{"fp": strconv.Itoa(i)}).Observe(time.Microsecond)
				r.GaugeFunc("gf", "", Labels{"fp": strconv.Itoa(i)}, func() float64 { return 1 })
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = tr.Last(8)
			_ = tr.Kept(8)
			var sb strings.Builder
			if err := WritePrometheus(&sb, r); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := r.Counter("c", "", Labels{"g": "x"}).Value(); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
}

// TestCappedHistogramKeepsRecentValues: a capped family keeps its own
// series for the most recently observed values of the capped label; a
// value past the cap evicts the one observed longest ago, whose counts
// fold into the "other" series, as does anything recorded later through
// a handle to the evicted series.
func TestCappedHistogramKeepsRecentValues(t *testing.T) {
	r := NewRegistry()
	get := func(fp string) *Histogram {
		return r.CappedHistogram("lat", "latency", Labels{"fp": fp, "s": "x"}, "fp", 2)
	}
	a, b := get("a"), get("b")
	a.Observe(time.Millisecond)
	time.Sleep(time.Millisecond)
	b.Observe(time.Millisecond) // a is now the value observed longest ago
	b.Observe(time.Millisecond)
	if get("b") != b {
		t.Fatal("a series resolved twice differs")
	}
	c := get("c") // evicts a
	c.Observe(time.Millisecond)
	a.Observe(time.Millisecond) // through the evicted handle: lands in other
	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_count{fp="b",s="x"} 2`,
		`lat_count{fp="c",s="x"} 1`,
		`lat_count{fp="other",s="x"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `fp="a"`) {
		t.Errorf("evicted value a still has a series:\n%s", out)
	}
	if n := strings.Count(out, "lat_count{"); n != 3 {
		t.Errorf("%d series, want 3 (two values under the cap and other)", n)
	}
}

// TestCappedHistogramConcurrent resolves and observes many values of a
// capped label from several goroutines at once: the family never holds
// more than the cap plus Other.
func TestCappedHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := r.CappedHistogram("lat", "latency", Labels{"fp": strconv.Itoa(g*100 + i%50)}, "fp", 8)
				h.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "lat_count{"); n > 9 {
		t.Errorf("%d series, want at most 8 and other", n)
	}
}
