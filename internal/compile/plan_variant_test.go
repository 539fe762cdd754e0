package compile

import (
	"sync"
	"testing"

	"dfg/internal/passes"
	"dfg/internal/strategy"
	"dfg/internal/vortex"
)

// TestPlanCacheVariantKeys: the same expression fingerprint planned
// under two configurations of one strategy must occupy distinct
// plan-cache slots — same fingerprint, different plans, two builds.
// Concurrent planning from both variants must stay race-free (run with
// -race) and converge on exactly one plan per variant.
func TestPlanCacheVariantKeys(t *testing.T) {
	c := NewCompiler()
	dev := cpuDev()
	low, err := strategy.ForName("tiered@128")
	if err != nil {
		t.Fatal(err)
	}
	high, err := strategy.ForName("tiered@4096")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	plans := make([]strategy.Plan, 2*workers)
	fps := make([]string, 2*workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		for j, strat := range []strategy.Strategy{low, high} {
			wg.Add(1)
			go func(slot int, s strategy.Strategy) {
				defer wg.Done()
				p, fp, err := c.PlanTracedAt(vortex.QCritExpr, passes.LevelPaper, s, dev, nil)
				if err != nil {
					t.Error(err)
					return
				}
				plans[slot], fps[slot] = p, fp
			}(2*i+j, strat)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i := 1; i < len(fps); i++ {
		if fps[i] != fps[0] {
			t.Fatal("a strategy variant must not change the network fingerprint")
		}
	}
	for i := 2; i < len(plans); i += 2 {
		if plans[i] != plans[0] || plans[i+1] != plans[1] {
			t.Fatal("plans for one variant must be shared")
		}
	}
	if plans[0] == plans[1] {
		t.Fatal("tiered@128 and tiered@4096 plans alias in the cache")
	}
	if got := c.Stats().PlanBuilds; got != 2 {
		t.Fatalf("want exactly 2 plan builds (one per variant), got %d", got)
	}

	// A variant of another strategy is a third slot.
	p3, fp3, err := c.PlanTracedAt(vortex.QCritExpr, passes.LevelPaper, strategy.Strategy{Kind: strategy.Streaming, Tiles: 16}, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fp3 != fps[0] || p3 == plans[0] || p3 == plans[1] {
		t.Fatal("streaming@16 must be its own plan under the same fingerprint")
	}
	if got := c.Stats().PlanBuilds; got != 3 {
		t.Fatalf("want 3 plan builds after the third variant, got %d", got)
	}
}
