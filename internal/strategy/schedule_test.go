package strategy

import (
	"testing"

	"dfg/internal/expr"
	"dfg/internal/passes"
	"dfg/internal/vortex"
)

// scheduleSpecs are the spec strings the differential harnesses sweep:
// each enables a different transformation subset, so tiling, register
// blocking, vectorization and temporal blocking are all exercised both
// alone and combined.
var scheduleSpecs = []string{
	"tile=16x16",
	"vec=4",
	"reg=2",
	"tile=16x16,reg=2,vec=4",
	"tile=8x8,temporal",
	"tile=16x16,reg=2,vec=4,temporal",
}

// mustSchedFusion builds the scheduled fusion strategy for a spec string.
func mustSchedFusion(t testing.TB, spec string) Fusion {
	t.Helper()
	s, err := passes.ParseScheduleSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return Fusion{Sched: s}
}

// FuzzScheduleDifferential is the schedule layer's bitwise contract,
// fuzzed over program text: any program the Paper pipeline accepts must
// evaluate identically — zero ULP — under every scheduled fusion
// variant and the flat paper kernel. This is the harness the
// schedule-smoke CI job drives.
func FuzzScheduleDifferential(f *testing.F) {
	for _, e := range vortex.Expressions() {
		f.Add(e.Text)
	}
	f.Add(vortex.GradMagExpr)
	f.Add("g = grad3d(u*u, dims, x, y, z)\nr = g[0] + norm(g)")
	f.Add("a = sqrt(u*u + v*v)\nr = min(a, abs(w))")
	f.Add("g = grad3d(0, dims, x, y, z)\nr = g[0]") // a constant field is a fusable intermediate
	f.Fuzz(func(t *testing.T, text string) {
		net, _, err := expr.CompileWithPipeline(text, nil, passes.Paper, passes.RunOptions{Verify: true})
		if err != nil {
			t.Skip() // not a well-formed program
		}
		bind := optLevelBindings(5)
		for _, name := range []string{"f", "dims", "x", "y", "z"} {
			if _, ok := bind.Sources[name]; !ok {
				bind.Sources[name] = bind.Sources["u"]
			}
		}
		flat, ferr := Fusion{}.Execute(cpuEnv(), net, bind)
		for _, spec := range scheduleSpecs {
			sres, serr := mustSchedFusion(t, spec).Execute(cpuEnv(), net, bind)
			if (ferr != nil) != (serr != nil) {
				t.Fatalf("flat err %v vs %q err %v\n%s", ferr, spec, serr, text)
			}
			if ferr != nil {
				continue // both reject — agreed
			}
			if len(sres.Data) != len(flat.Data) {
				t.Fatalf("%q output length %d vs flat %d\n%s", spec, len(sres.Data), len(flat.Data), text)
			}
			for i := range flat.Data {
				if ulpDiff(flat.Data[i], sres.Data[i]) != 0 {
					t.Fatalf("schedule %q diverges at element %d: %v vs %v\n%s",
						spec, i, sres.Data[i], flat.Data[i], text)
				}
			}
		}
	})
}

// TestScheduledMatchesAllStrategies is the deterministic cross-strategy
// check: for the paper expressions plus the two-pass gradient
// magnitude, every scheduled fusion variant agrees zero-ULP with all
// six execution strategies (roundtrip, staged, fusion, streaming, vm,
// tiered).
func TestScheduledMatchesAllStrategies(t *testing.T) {
	exprs := append(vortex.Expressions(),
		struct{ Name, Text string }{"GradMag", vortex.GradMagExpr})
	strategies := append(ExtendedNames(), "tiered")
	for _, e := range exprs {
		net, err := expr.Compile(e.Text)
		if err != nil {
			t.Fatal(err)
		}
		bind := optLevelBindings(17)
		ref, err := Fusion{}.Execute(cpuEnv(), net, bind)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, sname := range strategies {
			s, err := ForName(sname)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Execute(cpuEnv(), net, bind)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, sname, err)
			}
			for i := range ref.Data {
				if ulpDiff(ref.Data[i], res.Data[i]) != 0 {
					t.Fatalf("%s: %s diverges from fusion at %d", e.Name, sname, i)
				}
			}
		}
		for _, spec := range scheduleSpecs {
			res, err := mustSchedFusion(t, spec).Execute(cpuEnv(), net, bind)
			if err != nil {
				t.Fatalf("%s/%q: %v", e.Name, spec, err)
			}
			for i := range ref.Data {
				if ulpDiff(ref.Data[i], res.Data[i]) != 0 {
					t.Fatalf("%s: schedule %q diverges at %d: %v vs %v",
						e.Name, spec, i, res.Data[i], ref.Data[i])
				}
			}
		}
	}
}

// TestScheduledForName: the "fusion+<spec>" strategy-name form round-
// trips through ForName and PlanVariant, and bad specs are rejected.
func TestScheduledForName(t *testing.T) {
	s, err := ForName("fusion+tile=16x16,reg=2,vec=4")
	if err != nil {
		t.Fatal(err)
	}
	f, ok := s.(Fusion)
	if !ok || f.Sched.IsFlat() {
		t.Fatalf("ForName gave %#v", s)
	}
	if f.Name() != "fusion" {
		t.Fatalf("scheduled fusion keeps the paper strategy name, got %q", f.Name())
	}
	if got := PlanCacheName(f); got != "fusion+tile=16x16,reg=2,vec=4" {
		t.Fatalf("PlanCacheName = %q", got)
	}
	if got := PlanCacheName(Fusion{}); got != "fusion" {
		t.Fatalf("flat fusion PlanCacheName = %q (must keep historical key)", got)
	}
	if _, err := ForName("fusion+tile=3x3"); err == nil {
		t.Fatal("out-of-range tile must be rejected")
	}
	if _, err := ForName("fusion+bogus"); err == nil {
		t.Fatal("unknown schedule term must be rejected")
	}
	// "fusion+flat" canonicalises to the flat strategy.
	s2, err := ForName("fusion+flat")
	if err != nil {
		t.Fatal(err)
	}
	if got := PlanCacheName(s2); got != "fusion" {
		t.Fatalf("fusion+flat PlanCacheName = %q", got)
	}
}
