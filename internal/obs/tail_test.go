package obs

import (
	"strings"
	"testing"
	"time"
)

// TestTraceIDs: every root gets a unique ID, and ByID resolves it from
// the recent ring.
func TestTraceIDs(t *testing.T) {
	tr := NewTracer(8)
	a := tr.Start("request")
	b := tr.Start("request")
	if a.ID() == "" || b.ID() == "" || a.ID() == b.ID() {
		t.Fatalf("trace ids: %q vs %q", a.ID(), b.ID())
	}
	a.Finish()
	b.Finish()
	if got := tr.ByID(a.ID()); got != a {
		t.Fatalf("ByID(%q) = %v, want the finished root", a.ID(), got)
	}
	if tr.ByID("no-such-id") != nil {
		t.Fatal("ByID on unknown id must return nil")
	}
	var nilSpan *Span
	if nilSpan.ID() != "" {
		t.Fatal("nil span ID must be empty")
	}
	var nilTr *Tracer
	if nilTr.ByID("x") != nil || nilTr.Kept(0) != nil {
		t.Fatal("nil tracer ring accessors must be no-ops")
	}
}

// finishAfter finishes root as if it had run for d (backdating its
// start instead of sleeping).
func finishAfter(root *Span, d time.Duration) {
	root.Start = time.Now().Add(-d)
	root.Finish()
}

// TestKeepRule pins what the kept ring takes: every interesting root
// (error, rerouted, a retry or fallback child), every root at or above
// the slow threshold — which alone fires the slow hook — and, once the
// tail estimator holds tailMinSamples durations, the running slowest
// tailPercent. Each case publishes `warm` fast (1ms) roots first, then
// the root under test.
func TestKeepRule(t *testing.T) {
	const threshold = 10 * time.Millisecond
	cases := []struct {
		name      string
		threshold time.Duration
		warm      int
		dur       time.Duration
		mark      func(*Span)
		kept      bool
		hooked    bool
	}{
		{name: "plain", dur: 10 * time.Microsecond},
		{name: "error", dur: 10 * time.Microsecond, mark: func(s *Span) { s.SetAttr("error", "boom") }, kept: true},
		{name: "rerouted", dur: 10 * time.Microsecond, mark: func(s *Span) { s.SetAttr("rerouted", "2") }, kept: true},
		{name: "retry", dur: 10 * time.Microsecond, mark: func(s *Span) { s.Child("retry").Finish() }, kept: true},
		{name: "nested fallback", dur: 10 * time.Microsecond, mark: func(s *Span) { s.Child("execute").Child("fallback").Finish() }, kept: true},
		{name: "at threshold", threshold: threshold, dur: 20 * time.Millisecond, kept: true, hooked: true},
		{name: "under threshold", threshold: threshold, dur: 5 * time.Millisecond},
		{name: "slow, 31st sample", warm: tailMinSamples - 2, dur: time.Second},
		{name: "slow, 32nd sample", warm: tailMinSamples - 1, dur: time.Second, kept: true},
		{name: "fast after warm-up", warm: 100, dur: 10 * time.Microsecond},
		{name: "slowest after warm-up", warm: 100, dur: time.Second, kept: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := NewTracer(256)
			var hooked []*Span
			tr.SetSlow(c.threshold, func(sp *Span) { hooked = append(hooked, sp) })
			for i := 0; i < c.warm; i++ {
				finishAfter(tr.Start("request"), time.Millisecond)
			}
			root := tr.Start("request")
			if c.mark != nil {
				c.mark(root)
			}
			finishAfter(root, c.dur)

			kept := tr.Kept(0)
			if got := len(kept) > 0 && kept[len(kept)-1] == root; got != c.kept {
				t.Fatalf("kept = %v, want %v", got, c.kept)
			}
			if got := len(hooked) == 1 && hooked[0] == root; got != c.hooked || len(hooked) > 1 {
				t.Fatalf("slow hook saw %d roots (this one: %v), want this one: %v", len(hooked), got, c.hooked)
			}
		})
	}
}

// TestTailRetainsInteresting: below tailMinSamples no root is kept for
// its duration, yet errored and rerouted roots are kept while a healthy
// one is not.
func TestTailRetainsInteresting(t *testing.T) {
	tr := NewTracer(8)

	ok := tr.Start("request")
	ok.Finish()
	bad := tr.Start("request")
	bad.SetAttr("error", "boom")
	bad.Finish()
	moved := tr.Start("request")
	moved.SetAttr("rerouted", "2")
	moved.Finish()

	kept := tr.Kept(0)
	if len(kept) != 2 {
		t.Fatalf("kept %d traces, want 2 (error + rerouted)", len(kept))
	}
	for _, sp := range kept {
		if sp == ok {
			t.Fatal("healthy trace kept before the tail estimator has enough samples")
		}
	}
	if tr.ByID(bad.ID()) != bad {
		t.Fatal("errored trace not resolvable by ID")
	}
}

// TestTailRetainsSlowest: a root far above the running duration
// distribution is kept once the estimator has enough samples, with no
// slow threshold set; the fast majority does not grow the kept ring by it.
func TestTailRetainsSlowest(t *testing.T) {
	tr := NewTracer(64)
	for i := 0; i < tailMinSamples+8; i++ {
		finishAfter(tr.Start("request"), time.Millisecond)
	}
	fastKept := len(tr.Kept(0))

	slow := tr.Start("request")
	finishAfter(slow, time.Second)

	kept := tr.Kept(0)
	if len(kept) != fastKept+1 {
		t.Fatalf("kept %d traces after slow root, want %d", len(kept), fastKept+1)
	}
	if got := tr.ByID(slow.ID()); got != slow {
		t.Fatal("slow root not kept / resolvable by ID")
	}
}

// TestByIDFindsKeptAfterRecentWraps: a kept trace stays resolvable by ID
// after the recent ring has overwritten it.
func TestByIDFindsKeptAfterRecentWraps(t *testing.T) {
	tr := NewTracer(4)
	bad := tr.Start("request")
	bad.SetAttr("error", "boom")
	bad.Finish()
	for i := 0; i < 10; i++ {
		tr.Start("request").Finish()
	}
	for _, sp := range tr.Last(0) {
		if sp == bad {
			t.Fatal("recent ring did not wrap past the errored root")
		}
	}
	if got := tr.ByID(bad.ID()); got != bad {
		t.Fatalf("ByID(%q) = %v, want the kept errored root", bad.ID(), got)
	}
}

// TestRuntimeMetrics: the self-metrics register and expose plausible
// values through the Prometheus text writer.
func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{"go_goroutines", "go_heap_inuse_bytes", "go_gc_pause_seconds_total", "go_gc_runs_total"} {
		if !strings.Contains(out, name) {
			t.Fatalf("exposition missing %s:\n%s", name, out)
		}
	}
	if strings.Contains(out, "go_goroutines 0") {
		t.Fatal("go_goroutines reported 0")
	}
}
