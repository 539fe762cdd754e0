package compile

import (
	"testing"

	"dfg/internal/obs"
	"dfg/internal/passes"
)

// TestLevelKeysDistinct pins the cache-key contract: the Paper-level
// key is the bare digest (so every pre-pipeline fingerprint equality
// holds unchanged) while the O2 key carries a non-hex tag, so the two
// levels' networks and plans never collide in the shared caches.
func TestLevelKeysDistinct(t *testing.T) {
	c := NewCompiler()
	const text = "r = u*u + v*v"
	paper := c.FingerprintAt(text, passes.LevelPaper)
	o2 := c.FingerprintAt(text, passes.LevelO2)
	if paper == o2 {
		t.Fatalf("levels share fingerprint %q", paper)
	}
	if got := c.FingerprintAt(text, passes.LevelPaper); got != paper {
		t.Fatalf("Fingerprint = %q, want the Paper-level key %q", got, paper)
	}

	pnet, _, err := c.CompileTracedAt(text, passes.LevelPaper, nil)
	if err != nil {
		t.Fatal(err)
	}
	onet, _, err := c.CompileTracedAt(text, passes.LevelO2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pnet == onet {
		t.Fatal("both levels returned the same cached network")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("cache holds %d entries, want 2 (one per level)", st.Entries)
	}
}

// TestPassStatsAccumulate checks the per-pass aggregates behind the
// dfg_pass_* metrics: every pipeline pass that ran is recorded with its
// run count, removed-node total and time.
func TestPassStatsAccumulate(t *testing.T) {
	c := NewCompiler()
	if _, _, err := c.CompileTracedAt("r = 1 + 1 + u*v + v*u", passes.LevelO2, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range passes.Names() {
		st := c.PassStat(name)
		if st.Runs != 1 {
			t.Errorf("%s: %d runs, want 1", name, st.Runs)
		}
		if st.Seconds <= 0 {
			t.Errorf("%s: no time accumulated", name)
		}
	}
	if c.PassStat("constpool").NodesRemoved == 0 {
		t.Error("constpool removed no nodes on a duplicate-constant program")
	}
	if got := c.PassStat("nonesuch"); got.Runs != 0 || got.Name != "nonesuch" {
		t.Errorf("unknown pass stat = %+v", got)
	}
}

// TestPassSpans checks the tracing contract: a cache-miss compile hangs
// one "pass:<name>" child span per pipeline pass under the compile
// span's "build" stage, and a cache hit (which runs no passes) does
// not.
func TestPassSpans(t *testing.T) {
	c := NewCompiler()
	tr := obs.NewTracer(obs.DefaultKeep)

	root := tr.Start("eval")
	if _, _, err := c.CompileTracedAt("r = u*v + v*u", passes.LevelO2, root); err != nil {
		t.Fatal(err)
	}
	root.Finish()
	build := root.Find("build")
	if build == nil {
		t.Fatal("no build span under the compile span")
	}
	for _, name := range passes.Names() {
		sp := build.Find("pass:" + name)
		if sp == nil {
			t.Errorf("no pass:%s span under build", name)
			continue
		}
		if sp.Duration() <= 0 {
			t.Errorf("pass:%s span has no duration", name)
		}
	}

	hit := tr.Start("eval")
	if _, _, err := c.CompileTracedAt("r = u*v + v*u", passes.LevelO2, hit); err != nil {
		t.Fatal(err)
	}
	hit.Finish()
	cs := hit.Find("cache")
	if cs == nil || cs.Attr("outcome") != "hit" {
		t.Fatalf("second compile was not a cache hit: %+v", cs)
	}
	if sp := hit.Find("pass:cse"); sp != nil {
		t.Error("cache hit still produced pass spans")
	}
}
