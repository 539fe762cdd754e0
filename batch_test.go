package dfg

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dfg/internal/ocl"
	"dfg/internal/passes"
)

// batchTestExprs is an overlapping batch: every member shares the
// u*u + v*v + w*w subtree, the second member IS that subtree, and the
// last member duplicates the first exactly (same fingerprint).
var batchTestExprs = []string{
	"r = sqrt(u*u + v*v + w*w)",
	"r = u*u + v*v + w*w",
	"r = sqrt(u*u + v*v + w*w) + 2.0 * w",
	"r = sqrt(u*u + v*v + w*w)",
}

func batchTestInputs(n int) map[string][]float32 {
	u := make([]float32, n)
	v := make([]float32, n)
	w := make([]float32, n)
	for i := 0; i < n; i++ {
		u[i] = float32(i%13) * 0.25
		v[i] = float32(i%7) - 3.0
		w[i] = float32(i%29) * 0.125
	}
	return map[string][]float32{"u": u, "v": v, "w": w}
}

// evalTexts prepares texts in one handle, evaluates it once over n
// elements and closes it.
func evalTexts(eng *Engine, texts []string, n int, inputs map[string][]float32) (*Result, error) {
	p, err := eng.Prepare(texts...)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.Eval(n, inputs)
}

// batchStrategies is the full execution matrix the batch differential
// covers: the three device strategies, the streaming variant, the host
// bytecode VM, and the size-routed tiered front.
var batchStrategies = []string{"roundtrip", "staged", "fusion", "streaming", "vm", "tiered"}

// TestBatchMatchesSoloZeroULP is the batch acceptance gate: evaluating N
// overlapping expressions as one merged super-network must be bitwise
// identical to N individual evaluations, under every strategy.
func TestBatchMatchesSoloZeroULP(t *testing.T) {
	const n = 4096
	inputs := batchTestInputs(n)
	for _, strat := range batchStrategies {
		eng, err := New(Config{Device: CPU, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		bres, err := evalTexts(eng, batchTestExprs, n, inputs)
		if err != nil {
			t.Fatalf("%s: batch: %v", strat, err)
		}
		if got := len(bres.Members); got != len(batchTestExprs) {
			t.Fatalf("%s: %d results for %d members", strat, got, len(batchTestExprs))
		}
		for mi, text := range batchTestExprs {
			solo, err := eng.Eval(text, n, inputs)
			if err != nil {
				t.Fatalf("%s: solo member %d: %v", strat, mi, err)
			}
			got := bres.Members[mi].Data
			if len(got) != len(solo.Data) {
				t.Fatalf("%s: member %d: batch %d elements, solo %d", strat, mi, len(got), len(solo.Data))
			}
			for i := range solo.Data {
				if math.Float32bits(got[i]) != math.Float32bits(solo.Data[i]) {
					t.Fatalf("%s: member %d diverges at element %d: batch %v vs solo %v",
						strat, mi, i, got[i], solo.Data[i])
				}
			}
		}
	}
}

// TestBatchSharesSubtreeWork checks that the merge actually eliminates
// cross-expression duplicates: CSE reports shared nodes, and the single
// merged run dispatches strictly fewer kernels than the members would
// solo — the headline batching win.
func TestBatchSharesSubtreeWork(t *testing.T) {
	const n = 2048
	inputs := batchTestInputs(n)
	eng, err := New(Config{Device: CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := eng.Prepare(batchTestExprs...)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	if pb.merged != 3 {
		t.Fatalf("distinct members merged = %d, want 3 (duplicate should dedup)", pb.merged)
	}
	if pb.Shared() == 0 {
		t.Fatal("merge reported zero shared nodes for overlapping expressions")
	}
	bres, err := pb.Eval(n, inputs)
	if err != nil {
		t.Fatal(err)
	}
	soloKernels := 0
	for _, text := range batchTestExprs {
		res, err := eng.Eval(text, n, inputs)
		if err != nil {
			t.Fatal(err)
		}
		soloKernels += res.Profile.Kernels
	}
	if bres.Profile.Kernels >= soloKernels {
		t.Fatalf("batch dispatched %d kernels, solo members dispatch %d — batching saved nothing",
			bres.Profile.Kernels, soloKernels)
	}
	for i, m := range bres.Members {
		if m.Profile != bres.Profile {
			t.Fatalf("member %d profile %+v, want the run's %+v", i, m.Profile, bres.Profile)
		}
	}
	if &bres.Data[0] != &bres.Members[0].Data[0] {
		t.Fatal("Data does not mirror the first member")
	}
}

// TestBatchDuplicateMembersShareOutput: members that deduplicate to the
// same fingerprint must share one root and therefore one backing array.
func TestBatchDuplicateMembersShareOutput(t *testing.T) {
	const n = 512
	eng, err := New(Config{Device: CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := evalTexts(eng, batchTestExprs, n, batchTestInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	// Members 0 and 3 are textually identical.
	if &bres.Members[0].Data[0] != &bres.Members[3].Data[0] {
		t.Fatal("duplicate members did not share a backing output array")
	}
	if &bres.Members[0].Data[0] == &bres.Members[1].Data[0] {
		t.Fatal("distinct members share a backing output array")
	}
}

// TestBatchRootsFollowTextOrder: a handle of texts [B, A, B, A'], where
// A' commutes to A at O2 and B's key sorts after A's (so the merge's
// member order is not the text order), answers every text bit for bit
// as its solo run, and the texts whose roots unified — B twice, A and
// A' — share one output array.
func TestBatchRootsFollowTextOrder(t *testing.T) {
	const n = 1024
	inputs := batchTestInputs(n)
	for _, strat := range []string{"fusion", "vm", "staged"} {
		eng, err := New(Config{Device: CPU, Strategy: strat, Opt: "O2"})
		if err != nil {
			t.Fatal(err)
		}
		a, a2, b := "r = u*v + w", "r = v*u + w", "r = sqrt(u*u + 1.5) - w"
		if eng.Fingerprint(b) < eng.Fingerprint(a) {
			a, a2, b = b, "r = sqrt(1.5 + u*u) - w", a
		}
		texts := []string{b, a, b, a2}
		pb, err := eng.Prepare(texts...)
		if err != nil {
			t.Fatal(err)
		}
		if pb.merged != 3 || len(pb.plan.Network().Roots()) != 2 {
			t.Fatalf("%s: %d members merged into %d roots, want 3 into 2", strat, pb.merged, len(pb.plan.Network().Roots()))
		}
		bres, err := pb.Eval(n, inputs)
		pb.Close()
		if err != nil {
			t.Fatal(err)
		}
		for mi, text := range texts {
			solo, err := eng.Eval(text, n, inputs)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range solo.Data {
				if got := bres.Members[mi].Data[i]; math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s: member %d (%q) diverges at element %d: %v vs solo %v", strat, mi, text, i, got, want)
				}
			}
		}
		same := func(i, j int) bool { return &bres.Members[i].Data[0] == &bres.Members[j].Data[0] }
		if !same(0, 2) || !same(1, 3) || same(0, 1) {
			t.Fatalf("%s: members [B A B A'] share arrays 0=2 %v, 1=3 %v, 0=1 %v; want true, true, false", strat, same(0, 2), same(1, 3), same(0, 1))
		}
	}
}

// TestBatchOfOneSoloFastPath: texts that deduplicate to one distinct
// expression must take the one-text path — same plan, same result,
// recovery ladder and tiered routing intact — so batching never costs a
// lone request anything.
func TestBatchOfOneSoloFastPath(t *testing.T) {
	const n = 1024
	inputs := batchTestInputs(n)
	for _, strat := range batchStrategies {
		eng, err := New(Config{Device: CPU, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		texts := []string{batchTestExprs[0], batchTestExprs[0]}
		pb, err := eng.Prepare(texts...)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if pb.merged != 0 || pb.Shared() != 0 || pb.Fingerprint() != eng.Fingerprint(texts[0]) {
			t.Fatalf("%s: merged=%d shared=%d fingerprint %s: duplicate-only texts did not take the one-text path",
				strat, pb.merged, pb.Shared(), pb.Fingerprint())
		}
		bres, err := pb.Eval(n, inputs)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		pb.Close()
		solo, err := eng.Eval(texts[0], n, inputs)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(bres.Members) != len(texts) {
			t.Fatalf("%s: %d members for %d texts", strat, len(bres.Members), len(texts))
		}
		for _, r := range bres.Members {
			for i := range solo.Data {
				if math.Float32bits(r.Data[i]) != math.Float32bits(solo.Data[i]) {
					t.Fatalf("%s: batch-of-one diverges at element %d: %v vs %v",
						strat, i, r.Data[i], solo.Data[i])
				}
			}
		}
	}
}

// TestBatchMemberCompileErrorFailsWhole: Prepare of several texts is
// all-or-nothing; the error names the failing member so callers can drop
// it and re-batch. Zero texts is an error too.
func TestBatchMemberCompileErrorFailsWhole(t *testing.T) {
	eng, _ := New(Config{Device: CPU, Strategy: "fusion"})
	_, err := eng.Prepare(batchTestExprs[0], "r = sqrt(")
	if err == nil || !strings.Contains(err.Error(), "member 1") {
		t.Fatalf("batch with a malformed member 1: err = %v", err)
	}
	if _, err := eng.Prepare(); err == nil {
		t.Fatal("Prepare of no texts succeeded")
	}
	if live := eng.LiveBuffers(); live != 0 || *eng.prepCount != 0 {
		t.Fatalf("failed prepares left %d buffers and %d open handles", live, *eng.prepCount)
	}
}

// TestSourceNamedLikeMintedID: an input array the user calls "t0" — the
// spelling the network builder mints for internal nodes — is either
// evaluated as the bound array or rejected with the builder's collision
// error, the same way solo and batched, on every strategy and both
// optimisation levels. It must never resolve to an internal node: a
// batch used to hand member "t0" the other member's u + v.
func TestSourceNamedLikeMintedID(t *testing.T) {
	const n = 300
	inputs := batchTestInputs(n)
	ramp := make([]float32, n)
	for i := range ramp {
		ramp[i] = 1000 + float32(i)
	}
	inputs["t0"] = ramp
	bitsEqual := func(what string, got, want []float32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	doubled := make([]float32, n)
	sum := make([]float32, n)
	for i := range ramp {
		doubled[i] = ramp[i] * 2
		sum[i] = inputs["u"][i] + inputs["v"][i]
	}
	const collides = "a = u * 2\nr = t0 + a" // the 2 is minted t0 before the name is seen
	for _, strat := range []string{"fusion", "vm", "staged", "roundtrip", "tiered"} {
		for _, opt := range []string{"paper", "O2"} {
			eng, err := New(Config{Device: CPU, Strategy: strat, Opt: opt})
			if err != nil {
				t.Fatal(err)
			}
			tag := strat + "/" + opt
			solo, err := eng.Eval("r = t0 * 2", n, inputs)
			if err != nil {
				t.Fatalf("%s: solo: %v", tag, err)
			}
			bitsEqual(tag+" solo", solo.Data, doubled)
			for _, c := range []struct {
				texts []string
				want  [][]float32
			}{
				{[]string{"r = u + v", "r = t0 * 2"}, [][]float32{sum, doubled}},
				{[]string{"r = u + v", "t0"}, [][]float32{sum, ramp}},
				{[]string{"000", "t0"}, [][]float32{make([]float32, n), ramp}},
			} {
				bres, err := evalTexts(eng, c.texts, n, inputs)
				if err != nil {
					t.Fatalf("%s: batch %q: %v", tag, c.texts, err)
				}
				for mi, want := range c.want {
					bitsEqual(fmt.Sprintf("%s batch %q member %d", tag, c.texts, mi), bres.Members[mi].Data, want)
				}
			}
			_, soloErr := eng.Eval(collides, n, inputs)
			_, batchErr := evalTexts(eng, []string{"r = u + v", collides}, n, inputs)
			for what, err := range map[string]error{"solo": soloErr, "batch": batchErr} {
				if err == nil || !strings.Contains(err.Error(), `name "t0" collides with an internal node`) {
					t.Fatalf("%s: %s: want the collision error, got %v", tag, what, err)
				}
			}
		}
	}
}

// TestBatchPlanCacheHit: preparing the same batch shape twice must hit
// the plan cache under the batch fingerprint — the serving layer leans
// on this for recurring batch shapes.
func TestBatchPlanCacheHit(t *testing.T) {
	eng, err := New(Config{Device: CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	pb1, err := eng.Prepare(batchTestExprs...)
	if err != nil {
		t.Fatal(err)
	}
	defer pb1.Close()
	before := eng.CacheStats().PlanHits
	pb2, err := eng.Prepare(batchTestExprs...)
	if err != nil {
		t.Fatal(err)
	}
	defer pb2.Close()
	if eng.CacheStats().PlanHits <= before {
		t.Fatal("re-preparing an identical batch missed the plan cache")
	}
	if pb1.Fingerprint() != pb2.Fingerprint() {
		t.Fatalf("batch fingerprint unstable: %s vs %s", pb1.Fingerprint(), pb2.Fingerprint())
	}
}

// FuzzBatchDifferential fuzzes the merge itself: any pair of programs
// the pipeline accepts must evaluate identically batched and solo. A
// nonzero faultAt arms recovery and fails allocation number faultAt
// (from 1) of the merged run, which the ladder must answer just as
// exactly on its next rung. This is the harness the batch-smoke CI job
// drives.
func FuzzBatchDifferential(f *testing.F) {
	f.Add(batchTestExprs[0], batchTestExprs[1], uint8(0))
	f.Add(batchTestExprs[0], batchTestExprs[2], uint8(0))
	f.Add("r = u + v", "r = u - v", uint8(0))
	f.Add("s = min(u, v)\nr = if (s >= 0) then (sqrt(s)) else (-s)", "r = min(u, v) * w", uint8(0))
	// A source spelled like a minted ID stays a source in the merge: the
	// batch fails on the unbound t0 exactly as the solo member does.
	f.Add("000", "t0", uint8(0))
	f.Add("r = u + v", "t0", uint8(0))
	// Equal texts deduplicate to the one-text path; commuted operands are
	// two fingerprints that O2's canonical order makes one root.
	f.Add(batchTestExprs[0], batchTestExprs[0], uint8(0))
	f.Add("r = u * v + w", "r = w + v * u", uint8(0))
	// Faulted runs: the first allocation, a later one, and one past the
	// run's last (nothing fires).
	f.Add(batchTestExprs[0], batchTestExprs[2], uint8(1))
	f.Add("r = u + v", "r = u - v", uint8(3))
	f.Add(batchTestExprs[0], batchTestExprs[0], uint8(2))
	f.Add("r = u + v", "r = u - v", uint8(200))
	f.Fuzz(func(t *testing.T, a, b string, faultAt uint8) {
		for _, opt := range []string{"paper", "O2"} {
			batchDifferential(t, opt, a, b, faultAt)
		}
	})
}

// batchDifferential is one FuzzBatchDifferential case at one
// optimisation level.
func batchDifferential(t *testing.T, opt, a, b string, faultAt uint8) {
	const n = 257 // odd size: exercises partial final workgroups
	inputs := batchTestInputs(n)
	eng, err := New(Config{Device: CPU, Strategy: "fusion", Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-compile members solo; skip programs the pipeline rejects
	// (Prepare is all-or-nothing, mirrored here).
	if _, _, err := eng.comp.CompileTracedAt(a, passes.LevelO2, nil); err != nil {
		t.Skip()
	}
	if _, _, err := eng.comp.CompileTracedAt(b, passes.LevelO2, nil); err != nil {
		t.Skip()
	}
	if faultAt > 0 {
		eng.SetRecovery(int64(faultAt))
		eng.InjectFaults(ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultAlloc, Nth: int(faultAt) - 1, Effect: ocl.EffectError}))
	}
	texts := []string{a, b}
	bres, err := evalTexts(eng, texts, n, inputs)
	eng.InjectFaults(nil)
	if live := eng.LiveBuffers(); live != 0 {
		t.Fatalf("%s: %d live buffers after Close\n%s\n--\n%s", opt, live, a, b)
	}
	if err != nil {
		// Members compile but the run fails (an unbound source, say):
		// then some member must fail solo too.
		for _, text := range texts {
			if _, serr := eng.Eval(text, n, inputs); serr != nil {
				return
			}
		}
		t.Fatalf("%s: batch failed (%v) but every member runs solo\n%s\n--\n%s", opt, err, a, b)
	}
	// A run the ladder moved to another strategy is compared as strategies
	// are compared with each other; one that stayed put, bit for bit.
	same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
	if faultAt > 0 {
		same = sameClass
	}
	for mi, text := range texts {
		solo, err := eng.Eval(text, n, inputs)
		if err != nil {
			t.Fatalf("%s: batch ran but solo member %d failed: %v\n%s", opt, mi, err, text)
		}
		got := bres.Members[mi].Data
		for i := range solo.Data {
			if !same(got[i], solo.Data[i]) {
				t.Fatalf("%s: member %d diverges at element %d: batch %v vs solo %v\n%s",
					opt, mi, i, got[i], solo.Data[i], text)
			}
		}
	}
}

// sameClass is the zero-ULP comparison across strategies: a and b have
// equal bits, or are both NaN — IEEE 754 does not fix which NaN payload
// propagates.
func sameClass(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// BenchmarkBatchOfOneWarm measures the warm batch-of-one path against
// the perf gate's no-regression criterion: an expression prepared twice
// in one handle deduplicates to the one-text path, and should cost what
// a Prepared of it once does.
func BenchmarkBatchOfOneWarm(b *testing.B) {
	const n = 4096
	inputs := batchTestInputs(n)
	eng, err := New(Config{Device: CPU, Strategy: "fusion"})
	if err != nil {
		b.Fatal(err)
	}
	pb, err := eng.Prepare(batchTestExprs[0], batchTestExprs[0])
	if err != nil {
		b.Fatal(err)
	}
	defer pb.Close()
	if _, err := pb.Eval(n, inputs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pb.Eval(n, inputs); err != nil {
			b.Fatal(err)
		}
	}
}
