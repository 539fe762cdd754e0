package compile

import (
	"sync"
	"testing"

	"dfg/internal/obs"
	"dfg/internal/passes"
)

// TestCompileTracedSpans checks the span tree and cache-outcome
// annotations for a miss followed by a hit.
func TestCompileTracedSpans(t *testing.T) {
	c := NewCompiler()
	tr := obs.NewTracer(4)

	root := tr.Start("eval")
	net, key, err := c.CompileTracedAt("a = u + v", passes.LevelPaper, root)
	root.Finish()
	if err != nil || net == nil {
		t.Fatalf("compile failed: %v", err)
	}
	if key != c.FingerprintAt("a = u + v", passes.LevelPaper) {
		t.Fatal("CompileTraced key must match Fingerprint")
	}
	cs := root.Find("compile")
	if cs == nil {
		t.Fatal("no compile span")
	}
	if cs.Attr("fingerprint") != key.Short() {
		t.Fatalf("fingerprint attr = %q", cs.Attr("fingerprint"))
	}
	for _, stage := range []string{"parse", "fingerprint", "cache", "build"} {
		if cs.Find(stage) == nil {
			t.Fatalf("miss trace lacks %q span", stage)
		}
	}
	if got := cs.Find("cache").Attr("outcome"); got != "miss" {
		t.Fatalf("first compile outcome = %q, want miss", got)
	}

	root2 := tr.Start("eval")
	_, _, err = c.CompileTracedAt("a = u + v", passes.LevelPaper, root2)
	root2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cs2 := root2.Find("compile")
	if got := cs2.Find("cache").Attr("outcome"); got != "hit" {
		t.Fatalf("second compile outcome = %q, want hit", got)
	}
	if cs2.Find("build") != nil {
		t.Fatal("cache hit must not record a build span")
	}
}

// TestCompileTracedNilSpan is the no-op path: identical behavior, no
// trace.
func TestCompileTracedNilSpan(t *testing.T) {
	c := NewCompiler()
	net, key, err := c.CompileTracedAt("a = u * u", passes.LevelPaper, nil)
	if err != nil || net == nil || key == (Key{}) {
		t.Fatalf("nil-span compile: net=%v key=%v err=%v", net, key, err)
	}
	if _, _, err := c.CompileTracedAt("a = (", passes.LevelPaper, nil); err == nil {
		t.Fatal("parse error must still surface on the nil-span path")
	}
}

// TestCompileTracedConcurrentOutcomes hammers one cold key from many
// goroutines: exactly one build runs, every outcome annotation is one of
// the three legal values, and inflight returns to zero.
func TestCompileTracedConcurrentOutcomes(t *testing.T) {
	c := NewCompiler()
	tr := obs.NewTracer(64)
	const goroutines = 16
	var wg sync.WaitGroup
	roots := make([]*obs.Span, goroutines)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := tr.Start("eval")
			if _, _, err := c.CompileTracedAt("q = sqrt(u*u + v*v + w*w)", passes.LevelPaper, root); err != nil {
				t.Error(err)
			}
			root.Finish()
			roots[i] = root
		}()
	}
	wg.Wait()

	counts := map[string]int{}
	for _, root := range roots {
		outcome := root.Find("cache").Attr("outcome")
		counts[outcome]++
	}
	if counts["miss"] != 1 {
		t.Fatalf("want exactly 1 miss build, got outcomes %v", counts)
	}
	if counts["miss"]+counts["hit"]+counts["singleflight-wait"] != goroutines {
		t.Fatalf("illegal outcome in %v", counts)
	}
	st := c.Stats()
	if st.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1", st.Compiles)
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d after quiesce, want 0", st.Inflight)
	}
}
