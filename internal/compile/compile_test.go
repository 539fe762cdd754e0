package compile

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/expr"
	"dfg/internal/passes"
	"dfg/internal/vortex"
)

// compilePaper is the short spelling these tests share: Paper level, no
// span, no fingerprint.
func compilePaper(c *Compiler, text string) (*dataflow.Network, error) {
	net, _, err := c.CompileTracedAt(text, passes.LevelPaper, nil)
	return net, err
}

func TestCompileCachesRepeatedExpressions(t *testing.T) {
	c := NewCompiler()
	const text = "v = sqrt(u*u + w*w)"
	n1, err := compilePaper(c, text)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := compilePaper(c, text)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatal("repeat compile must return the cached network")
	}
	if !n1.Sealed() {
		t.Fatal("cached networks must be sealed")
	}
	st := c.Stats()
	if st.Compiles != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want exactly one compile and one entry", st)
	}
}

// TestRedefinitionInvalidatesExactlyAffectedEntries is the cache-
// correctness core: redefining a name forces recompilation of exactly
// the expressions that (transitively) reference it.
func TestRedefinitionInvalidatesExactlyAffectedEntries(t *testing.T) {
	c := NewCompiler()
	if err := c.Define("d1", "u * 2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Define("d2", "d1 + 1"); err != nil { // chains to d1
		t.Fatal(err)
	}
	if err := c.Define("d3", "w - 1"); err != nil {
		t.Fatal(err)
	}
	exprs := []string{
		"a = d1",     // directly references d1
		"b = d2",     // references d1 through d2
		"c = d3",     // unrelated definition
		"e = u + w",  // no definitions at all
		"d1 = u\nd1", // shadows d1 with a local assignment: not a reference
	}
	for _, text := range exprs {
		if _, err := compilePaper(c, text); err != nil {
			t.Fatalf("%q: %v", text, err)
		}
	}
	base := c.Stats().Compiles
	if base != int64(len(exprs)) {
		t.Fatalf("expected %d initial compiles, got %d", len(exprs), base)
	}

	if err := c.Define("d1", "u * 3"); err != nil {
		t.Fatal(err)
	}
	for _, text := range exprs {
		if _, err := compilePaper(c, text); err != nil {
			t.Fatalf("%q after redefine: %v", text, err)
		}
	}
	// Exactly the two d1-dependent expressions recompile; the unrelated
	// ones (including the shadowed-name program) hit the cache.
	if got := c.Stats().Compiles; got != base+2 {
		t.Fatalf("redefinition caused %d recompiles, want exactly 2", got-base)
	}

	// And the recompiled network reflects the new definition.
	net, err := compilePaper(c, "a = d1")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range net.Nodes() {
		if n.Filter == "const" && n.Value == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("recompiled network still uses the old definition body")
	}
}

// TestCompileSingleflight: many goroutines racing on a cold key share
// one compilation.
func TestCompileSingleflight(t *testing.T) {
	c := NewCompiler()
	// A deliberately chunky expression so the compile has real width.
	var sb strings.Builder
	sb.WriteString("acc = u")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "\nacc = sqrt(acc*acc + %d.0) + v*%d", i, i)
	}
	text := sb.String()

	const goroutines = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := compilePaper(c, text); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := c.Stats().Compiles; got != 1 {
		t.Fatalf("%d goroutines caused %d compiles, want 1", goroutines, got)
	}
}

func TestCompileErrorsAreCachedPerFingerprint(t *testing.T) {
	c := NewCompiler()
	if err := c.Define("d1", "d2 + 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Define("d2", "d1 + 1"); err != nil {
		t.Fatal(err)
	}
	_, err1 := compilePaper(c, "r = d1") // recursive definitions: rejected
	if err1 == nil {
		t.Fatal("recursive definitions must fail to compile")
	}
	_, err2 := compilePaper(c, "r = d1")
	if err2 == nil || c.Stats().Compiles != 1 {
		t.Fatalf("failed compile must be cached too (compiles=%d)", c.Stats().Compiles)
	}
	// Breaking the cycle changes the fingerprint and recovers.
	if err := c.Define("d2", "u"); err != nil {
		t.Fatal(err)
	}
	if _, err := compilePaper(c, "r = d1"); err != nil {
		t.Fatalf("after breaking the cycle: %v", err)
	}
}

func TestParseErrorsAreNotCached(t *testing.T) {
	c := NewCompiler()
	if _, err := compilePaper(c, "= = ="); err == nil {
		t.Fatal("garbage must fail")
	}
	if st := c.Stats(); st.Entries != 0 || st.Compiles != 0 {
		t.Fatalf("parse failures must not occupy cache slots: %+v", st)
	}
}

func TestDefineValidates(t *testing.T) {
	c := NewCompiler()
	if err := c.Define("", "u"); err == nil {
		t.Error("empty definition name must fail")
	}
	if err := c.Define("bad", "$"); err == nil {
		t.Error("unparseable definition must fail")
	}
	if got := c.Definitions(); len(got) != 0 {
		t.Errorf("failed defines must not register: %v", got)
	}
	// Builds expand the program Define parsed, so a registered body that
	// no longer parses cannot exist: a broken redefinition is refused and
	// the previous body keeps compiling.
	if err := c.Define("d", "u * 2"); err != nil {
		t.Fatal(err)
	}
	fp := c.FingerprintAt("r = d", passes.LevelPaper)
	if err := c.Define("d", "u *"); err == nil {
		t.Error("a redefinition that does not parse must fail")
	}
	if _, err := compilePaper(c, "r = d"); err != nil || c.FingerprintAt("r = d", passes.LevelPaper) != fp {
		t.Errorf("refused redefinition disturbed the old body: err=%v", err)
	}
}

// TestDefinedProgramOutlivesLaterParses: Define keeps the parsed
// program, whose nodes live in that parse's own arena, so a thousand
// later parses and builds leave it byte-identical, and it still expands
// into the same network.
func TestDefinedProgramOutlivesLaterParses(t *testing.T) {
	c := NewCompiler()
	if err := c.Define("qc", vortex.QCritExpr); err != nil {
		t.Fatal(err)
	}
	kept := c.snapshot()["qc"].prog
	expand := func() string {
		t.Helper()
		use, err := expr.Parse("r = qc")
		if err != nil {
			t.Fatal(err)
		}
		net, err := expr.BuildNetworkWithDefinitions(use, map[string]*expr.Program{"qc": kept})
		if err != nil {
			t.Fatal(err)
		}
		js, err := net.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(js)
	}
	want, wantNet := kept.String(), expand()
	for i := 0; i < 1000; i++ {
		if _, err := compilePaper(c, fmt.Sprintf("r = qc * %d.5 - u", i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.snapshot()["qc"].prog != kept {
		t.Fatal("the definition was re-parsed")
	}
	if got := kept.String(); got != want {
		t.Fatalf("the defined program changed after later parses:\n%s\nwant\n%s", got, want)
	}
	if got := expand(); got != wantNet {
		t.Fatalf("the defined program expands differently after later parses:\n%s\nwant\n%s", got, wantNet)
	}
}

func TestEvictionBoundsCache(t *testing.T) {
	c := NewCompiler()
	c.setMaxEntries(2)
	for i := 0; i < 8; i++ {
		if _, err := compilePaper(c, fmt.Sprintf("r = u + %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries > 2 {
		t.Fatalf("cache exceeded bound: %+v", st)
	}
	// Most-recently-used entry survives eviction.
	before := c.Stats().Compiles
	if _, err := compilePaper(c, "r = u + 7"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Compiles; got != before {
		t.Fatal("most recent entry should have survived eviction")
	}
}

func TestFingerprintRelevance(t *testing.T) {
	c := NewCompiler()
	if err := c.Define("rel", "u * 2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Define("other", "w * 2"); err != nil {
		t.Fatal(err)
	}
	text := "r = rel + 1"
	fp := c.FingerprintAt(text, passes.LevelPaper)
	if err := c.Define("other", "w * 9"); err != nil {
		t.Fatal(err)
	}
	if c.FingerprintAt(text, passes.LevelPaper) != fp {
		t.Fatal("redefining an unreferenced name must not change the fingerprint")
	}
	if err := c.Define("rel", "u * 5"); err != nil {
		t.Fatal(err)
	}
	if c.FingerprintAt(text, passes.LevelPaper) == fp {
		t.Fatal("redefining a referenced name must change the fingerprint")
	}
}
