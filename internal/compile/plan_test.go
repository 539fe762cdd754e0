package compile

import (
	"fmt"
	"sync"
	"testing"

	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/strategy"
)

func cpuDev() *ocl.Device { return ocl.NewDevice(ocl.XeonX5660Spec(64)) }

// TestPlanCacheSharesPlans: the same (text, strategy, device class)
// resolves to the same plan pointer, a different strategy or device
// class to a different one, and the counters record it all.
func TestPlanCacheSharesPlans(t *testing.T) {
	c := NewCompiler()
	fusion, _ := strategy.ForName("fusion")
	staged, _ := strategy.ForName("staged")
	dev := cpuDev()

	p1, fp1, err := c.PlanTracedAt("m = u + v", passes.LevelPaper, fusion, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, fp2, err := c.PlanTracedAt("m = u + v", passes.LevelPaper, fusion, cpuDev(), nil) // same class, other device
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same (text, strategy, device class) produced different plans")
	}
	if fp1 != fp2 {
		t.Fatal("fingerprints diverged for identical text")
	}

	p3, _, err := c.PlanTracedAt("m = u + v", passes.LevelPaper, staged, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("different strategies shared one plan")
	}
	gpu := ocl.NewDevice(ocl.TeslaM2050Spec(64))
	p4, _, err := c.PlanTracedAt("m = u + v", passes.LevelPaper, fusion, gpu, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Fatal("different device classes shared one plan")
	}

	st := c.Stats()
	if st.PlanBuilds != 3 {
		t.Fatalf("PlanBuilds = %d, want 3", st.PlanBuilds)
	}
	if st.PlanEntries != 3 {
		t.Fatalf("PlanEntries = %d, want 3", st.PlanEntries)
	}
	if st.PlanHits != 1 || st.PlanMisses != 3 {
		t.Fatalf("plan hits/misses = %d/%d, want 1/3", st.PlanHits, st.PlanMisses)
	}
}

// TestPlanCacheSingleflight: concurrent requests for the same key build
// the plan exactly once.
func TestPlanCacheSingleflight(t *testing.T) {
	c := NewCompiler()
	fusion, _ := strategy.ForName("fusion")
	const workers = 8
	plans := make([]strategy.Plan, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], _, errs[i] = c.PlanTracedAt("q = sqrt(u*u + v*v)", passes.LevelPaper, fusion, cpuDev(), nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatal("concurrent requests received different plans")
		}
	}
	if st := c.Stats(); st.PlanBuilds != 1 {
		t.Fatalf("PlanBuilds = %d, want 1", st.PlanBuilds)
	}
}

// TestPlanCacheRedefineInvalidates: redefining a referenced name moves
// the fingerprint, so the next Plan call builds a fresh plan against
// the new definition; unrelated entries stay cached.
func TestPlanCacheRedefineInvalidates(t *testing.T) {
	c := NewCompiler()
	fusion, _ := strategy.ForName("fusion")
	dev := cpuDev()
	if err := c.Define("speed", "sqrt(u*u + v*v)"); err != nil {
		t.Fatal(err)
	}
	p1, fp1, err := c.PlanTracedAt("m = speed", passes.LevelPaper, fusion, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := c.PlanTracedAt("m = u * v", passes.LevelPaper, fusion, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Define("speed", "u + v"); err != nil {
		t.Fatal(err)
	}
	p2, fp2, err := c.PlanTracedAt("m = speed", passes.LevelPaper, fusion, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Fatal("redefinition did not change the fingerprint")
	}
	if p1 == p2 {
		t.Fatal("redefinition did not invalidate the plan")
	}
	again, _, err := c.PlanTracedAt("m = u * v", passes.LevelPaper, fusion, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != other {
		t.Fatal("unrelated plan was invalidated by the redefinition")
	}
}

// TestPlanCacheEviction: the plan cache honors the shared entry bound.
func TestPlanCacheEviction(t *testing.T) {
	c := NewCompiler()
	c.setMaxEntries(2)
	fusion, _ := strategy.ForName("fusion")
	dev := cpuDev()
	exprs := []string{"a = u + v", "b = u - v", "c = u * v"}
	for _, e := range exprs {
		if _, _, err := c.PlanTracedAt(e, passes.LevelPaper, fusion, dev, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.PlanEntries > 2 {
		t.Fatalf("PlanEntries = %d exceeds bound 2", st.PlanEntries)
	}
}

// BenchmarkColdPlanNestedDefs is one cold PlanTracedAt per op: a text
// never seen before that references a definition referencing another,
// so every op parses, fingerprints, builds, runs the passes and plans.
func BenchmarkColdPlanNestedDefs(b *testing.B) {
	c := NewCompiler()
	if err := c.Define("inner", "sqrt(u*u + v*v)"); err != nil {
		b.Fatal(err)
	}
	if err := c.Define("outer", "inner * w + inner"); err != nil {
		b.Fatal(err)
	}
	fusion, _ := strategy.ForName("fusion")
	dev := cpuDev()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.PlanTracedAt(fmt.Sprintf("r = outer + %d", i), passes.LevelPaper, fusion, dev, nil); err != nil {
			b.Fatal(err)
		}
	}
}
