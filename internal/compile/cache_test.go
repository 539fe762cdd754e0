package compile

import (
	"fmt"
	"sync"
	"testing"

	"dfg/internal/obs"
	"dfg/internal/passes"
	"dfg/internal/strategy"
)

// TestCachesShareOneDiscipline drives the network, plan and merge
// caches — three instantiations of cache[K, V] — through the same
// three checks: racing goroutines on one cold key build once and every
// span records a legal outcome, a repeat is a "hit", and the LRU bound
// holds with the most recent key surviving.
func TestCachesShareOneDiscipline(t *testing.T) {
	fusion, _ := strategy.ForName("fusion")
	dev := cpuDev()
	text := func(i int) string { return fmt.Sprintf("r = u * %d + v", i+2) }
	// member compiles text(i) outside the cache under test, so the merge
	// row's counters see only merges.
	member := func(c *Compiler, i int) Member {
		net, key, err := c.CompileTracedAt(text(i), passes.LevelPaper, nil)
		if err != nil {
			t.Error(err)
		}
		return Member{Key: key, Net: net}
	}
	for _, tc := range []struct {
		name, span string
		// get touches the cache's i-th key under parent.
		get             func(c *Compiler, i int, parent *obs.Span) error
		builds, entries func(st Stats) int64
	}{
		{"network", "cache",
			func(c *Compiler, i int, parent *obs.Span) error {
				_, _, err := c.CompileTracedAt(text(i), passes.LevelPaper, parent)
				return err
			},
			func(st Stats) int64 { return st.Compiles }, func(st Stats) int64 { return int64(st.Entries) }},
		{"plan", "plan",
			func(c *Compiler, i int, parent *obs.Span) error {
				_, _, err := c.PlanTracedAt(text(i), passes.LevelPaper, fusion, dev, parent)
				return err
			},
			func(st Stats) int64 { return st.PlanBuilds }, func(st Stats) int64 { return int64(st.PlanEntries) }},
		{"merge", "merge",
			func(c *Compiler, i int, parent *obs.Span) error {
				_, _, _, err := c.MergeTraced([]Member{member(c, i), member(c, i+100)}, parent)
				return err
			},
			func(st Stats) int64 { return st.MergeBuilds }, func(st Stats) int64 { return int64(st.MergeEntries) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCompiler()
			tr := obs.NewTracer(64)
			outcome := func(i int) string {
				root := tr.Start("eval")
				defer root.Finish()
				if err := tc.get(c, i, root); err != nil {
					t.Error(err)
					return ""
				}
				return root.Find(tc.span).Attr("outcome")
			}

			const goroutines = 16
			outcomes := make([]string, goroutines)
			var wg sync.WaitGroup
			for g := range outcomes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outcomes[g] = outcome(0)
				}()
			}
			wg.Wait()
			counts := map[string]int{}
			for _, o := range outcomes {
				counts[o]++
			}
			if counts["miss"] != 1 || counts["miss"]+counts["hit"]+counts["singleflight-wait"] != goroutines {
				t.Fatalf("outcomes %v, want exactly one miss and only hit/singleflight-wait besides", counts)
			}
			if got := tc.builds(c.Stats()); got != 1 {
				t.Fatalf("%d goroutines caused %d builds, want 1", goroutines, got)
			}
			if got := outcome(0); got != "hit" {
				t.Fatalf("repeat outcome = %q, want hit", got)
			}

			c.setMaxEntries(2)
			for i := 1; i <= 8; i++ {
				outcome(i)
			}
			if got := tc.entries(c.Stats()); got > 2 {
				t.Fatalf("%d entries under a bound of 2", got)
			}
			before := tc.builds(c.Stats())
			if got := outcome(8); got != "hit" || tc.builds(c.Stats()) != before {
				t.Fatalf("most recent key: outcome %q, %d new builds; it should have survived eviction", got, tc.builds(c.Stats())-before)
			}
			if got := outcome(0); got != "miss" {
				t.Fatalf("evicted key: outcome %q, want miss", got)
			}
		})
	}
}

// TestFingerprintMatchesCompileKey: FingerprintAt and CompileTracedAt
// derive the key from the same single parse, so they agree — through
// nested definitions, when a local shadows a definition, at both
// levels, and on either side of a redefinition.
func TestFingerprintMatchesCompileKey(t *testing.T) {
	c := NewCompiler()
	for name, body := range map[string]string{"inner": "u * 2", "outer": "inner + w", "unused": "v - 1"} {
		if err := c.Define(name, body); err != nil {
			t.Fatal(err)
		}
	}
	texts := []string{
		"r = outer * outer",      // outer -> inner: two nested definitions
		"inner = v\nr = inner",   // local shadows the definition: no reference
		"r = inner\ninner = 3.0", // referenced before the local assignment
		"r = u + v",              // no definitions
	}
	keys := func() map[string]Key {
		out := map[string]Key{}
		for _, lvl := range []passes.Level{passes.LevelPaper, passes.LevelO2} {
			for _, text := range texts {
				_, key, err := c.CompileTracedAt(text, lvl, nil)
				if err != nil {
					t.Fatalf("%q: %v", text, err)
				}
				if fp := c.FingerprintAt(text, lvl); fp != key {
					t.Fatalf("%q at %v: FingerprintAt %s != compile key %s", text, lvl, fp, key)
				}
				out[lvl.String()+text] = key
			}
		}
		return out
	}
	before := keys()
	if err := c.Define("inner", "u * 3"); err != nil {
		t.Fatal(err)
	}
	after := keys()
	for _, lvl := range []string{"paper", "O2"} {
		for i, changes := range []bool{true, false, true, false} {
			if k := lvl + texts[i]; (before[k] != after[k]) != changes {
				t.Errorf("%q at %s: key changed = %v across redefining inner, want %v", texts[i], lvl, before[k] != after[k], changes)
			}
		}
	}
}

// TestClockKeepsTouchedKey: under second-chance eviction a key hit
// between every two misses survives any number of them, while the keys
// that are never touched again take turns being evicted.
func TestClockKeepsTouchedKey(t *testing.T) {
	var c cache[int, int]
	c.max = 4
	get := func(k int) string {
		_, outcome, _ := c.get(k, func() (int, error) { return k, nil })
		return outcome
	}
	get(0)
	for i := 1; i <= 12; i++ {
		if got := get(i); got != "miss" {
			t.Fatalf("fresh key %d: outcome %q, want miss", i, got)
		}
		if got := get(0); got != "hit" {
			t.Fatalf("after %d misses the touched key's outcome is %q, want hit", i, got)
		}
		if n := c.len(); n > 4 {
			t.Fatalf("%d entries under a bound of 4", n)
		}
	}
	if got := c.builds.Load(); got != 13 {
		t.Fatalf("%d builds, want 13 (the touched key once, every fresh key once)", got)
	}
	if got := get(1); got != "miss" {
		t.Fatalf("the oldest untouched key: outcome %q, want miss", got)
	}
}

// TestClockBoundHoldsUnderRace: goroutines hitting a few hot keys and
// missing on fresh ones never see the cache above its bound.
func TestClockBoundHoldsUnderRace(t *testing.T) {
	var c cache[int, int]
	c.max = 8
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := i % 3 // hot
				if i%2 == 1 {
					k = 1000 + g*1000 + i // fresh
				}
				c.get(k, func() (int, error) { return k, nil })
				if n := c.len(); n > 8 {
					t.Errorf("%d entries under a bound of 8", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.len() != 8 || len(c.ring) != 8 {
		t.Fatalf("%d entries, %d ring slots after the run, want 8 and 8", c.len(), len(c.ring))
	}
}
