package dfg_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"dfg"
	"dfg/internal/compile"
)

// TestPreparedWarmEvalReusesEverything: Prepare once, Eval repeatedly —
// the warm evals must allocate no fresh device buffers, skip re-uploads
// of unchanged sources, and reproduce the cold output bitwise. Close
// must drain the arena back to the pre-Prepare level.
func TestPreparedWarmEvalReusesEverything(t *testing.T) {
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	inputs := evalInputs(n)

	pr, err := eng.Prepare("m = sqrt(u*u + v*v + w*w)")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := pr.Eval(n, inputs)
	if err != nil {
		t.Fatal(err)
	}
	afterCold := eng.ArenaStats()
	if afterCold.Allocated == 0 {
		t.Fatal("cold eval allocated nothing through the arena")
	}

	for i := 0; i < 3; i++ {
		warm, err := pr.Eval(n, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Profile.Writes != 0 {
			t.Fatalf("warm eval %d uploaded %d sources, want 0 (resident)", i, warm.Profile.Writes)
		}
		for j := range cold.Data {
			if cold.Data[j] != warm.Data[j] {
				t.Fatalf("warm eval %d diverged at element %d", i, j)
			}
		}
	}
	afterWarm := eng.ArenaStats()
	if afterWarm.Allocated != afterCold.Allocated {
		t.Fatalf("warm evals allocated %d fresh buffers", afterWarm.Allocated-afterCold.Allocated)
	}
	if afterWarm.UploadsSkipped == 0 {
		t.Fatal("warm evals skipped no uploads")
	}

	pr.Close()
	st := eng.ArenaStats()
	if st.PooledBytes != 0 || st.ResidentBytes != 0 || st.Resident != 0 {
		t.Fatalf("Close left arena non-empty: %+v", st)
	}
	pr.Close() // idempotent

	if _, err := pr.Eval(n, inputs); err == nil {
		t.Fatal("Eval on a closed Prepared succeeded")
	}
}

// TestDerivedViewsShareHandleCount: WithOptLevel / WithStrategy views
// share the receiver's arena, so they share its open-handle count —
// closing the last handle on one view must not drain the arena under
// the other view's open handle.
func TestDerivedViewsShareHandleCount(t *testing.T) {
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	for _, derive := range []func() (*dfg.Engine, error){
		func() (*dfg.Engine, error) { return eng.WithOptLevel("O2") },
		func() (*dfg.Engine, error) { return eng.WithStrategy("staged") },
	} {
		view, err := derive()
		if err != nil {
			t.Fatal(err)
		}
		const n = 4096
		inputs := evalInputs(n)
		survivor, err := eng.Prepare("m = sqrt(u*u + v*v + w*w)")
		if err != nil {
			t.Fatal(err)
		}
		other, err := view.Prepare("s = u + v")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := survivor.Eval(n, inputs); err != nil { // cold: fills the arena
			t.Fatal(err)
		}
		before := eng.ArenaStats()
		other.Close()
		if _, err := survivor.Eval(n, inputs); err != nil {
			t.Fatal(err)
		}
		if after := eng.ArenaStats(); after.Allocated != before.Allocated {
			t.Fatalf("closing the other view's handle drained the arena: warm eval allocated %d device buffers",
				after.Allocated-before.Allocated)
		}
		survivor.Close()
		if live := eng.LiveBuffers(); live != 0 {
			t.Fatalf("last Close left %d buffers live", live)
		}
	}
}

// TestOneShotEvalStaysCold: plain Engine.Eval must not touch the arena —
// the paper's per-run allocate/free semantics (Table II event counts,
// Figure 6 memory profile) stay exact on the one-shot path.
func TestOneShotEvalStaysCold(t *testing.T) {
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "staged"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	inputs := evalInputs(n)
	for i := 0; i < 3; i++ {
		if _, err := eng.Eval("m = u + v*w", n, inputs); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.ArenaStats()
	if st.Allocated != 0 || st.Reused != 0 || st.Uploads != 0 {
		t.Fatalf("one-shot Eval went through the arena: %+v", st)
	}
}

// TestPreparedSharedCompiler: engines sharing one compiler share plans —
// the plan is built once for the pool — and concurrent Prepare+Eval
// across engines is race-free (run under -race in CI).
func TestPreparedSharedCompiler(t *testing.T) {
	comp := compile.NewCompiler()
	const workers = 4
	engines := make([]*dfg.Engine, workers)
	for i := range engines {
		dev, err := dfg.NewDeviceFor(dfg.Config{Device: dfg.CPU})
		if err != nil {
			t.Fatal(err)
		}
		engines[i], err = dfg.NewWith(dev, "fusion", comp)
		if err != nil {
			t.Fatal(err)
		}
	}

	const n = 2048
	inputs := evalInputs(n)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i, eng := range engines {
		wg.Add(1)
		go func(i int, eng *dfg.Engine) {
			defer wg.Done()
			pr, err := eng.Prepare("m = sqrt(u*u + v*v + w*w)")
			if err != nil {
				errs[i] = err
				return
			}
			defer pr.Close()
			for j := 0; j < 3; j++ {
				if _, err := pr.Eval(n, inputs); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, eng)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}

	st := comp.Stats()
	if st.PlanBuilds != 1 {
		t.Fatalf("plan built %d times for one (expr, strategy, device class), want 1", st.PlanBuilds)
	}
	if st.PlanEntries != 1 {
		t.Fatalf("plan cache holds %d entries, want 1", st.PlanEntries)
	}
}

// TestPreparedRedefineInvalidates: redefining a referenced name changes
// the fingerprint, so a fresh Prepare picks up the new definition while
// an existing handle keeps evaluating its original plan.
func TestPreparedRedefineInvalidates(t *testing.T) {
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Define("speed", "sqrt(u*u + v*v + w*w)"); err != nil {
		t.Fatal(err)
	}
	const n = 512
	inputs := evalInputs(n)

	pr1, err := eng.Prepare("m = speed")
	if err != nil {
		t.Fatal(err)
	}
	defer pr1.Close()
	res1, err := pr1.Eval(n, inputs)
	if err != nil {
		t.Fatal(err)
	}

	if err := eng.Define("speed", "u + v + w"); err != nil {
		t.Fatal(err)
	}
	if eng.Fingerprint("m = speed") == pr1.Fingerprint() {
		t.Fatal("redefinition did not change the fingerprint")
	}
	pr2, err := eng.Prepare("m = speed")
	if err != nil {
		t.Fatal(err)
	}
	defer pr2.Close()
	res2, err := pr2.Eval(n, inputs)
	if err != nil {
		t.Fatal(err)
	}

	same := true
	for i := range res1.Data {
		if res1.Data[i] != res2.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("prepared plan did not pick up the redefinition")
	}
}

// qcritOnMesh returns a uniform edge³ mesh with a generated velocity
// field bound for Q-criterion.
func qcritOnMesh(t *testing.T, edge int) (*dfg.Mesh, map[string][]float32) {
	t.Helper()
	m, err := dfg.NewUniformMesh(dfg.Dims{NX: edge, NY: edge, NZ: edge}, 1/float32(edge), 1/float32(edge), 1/float32(edge))
	if err != nil {
		t.Fatal(err)
	}
	return m, dfg.FieldInputs(dfg.GenerateRT(m, 7))
}

// TestColdOpsLeaveNoHeapBehind: every op prepares a never-seen
// expression, evaluates it once and closes it. Once the compiler's
// caches hold compile.DefaultMaxEntries each, live heap must stop
// growing: the plan owns its lowered program and the compile layer's
// bounded plan cache is the only memo, so an evicted plan takes
// everything with it. (Unbounded per-network program memos under that
// cache used to retain ≈ 27 KB per expression forever.)
func TestColdOpsLeaveNoHeapBehind(t *testing.T) {
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion", Opt: "O2"})
	if err != nil {
		t.Fatal(err)
	}
	m, fields := qcritOnMesh(t, 4)
	op := 0
	coldOps := func(count int) uint64 {
		for end := op + count; op < end; op++ {
			pr, err := eng.Prepare(fmt.Sprintf("%s\nt = q * %d.5 + %d", dfg.QCriterionExpr, op, op))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pr.EvalMesh(m, fields); err != nil {
				t.Fatal(err)
			}
			pr.Close()
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// 2n leaked programs would be ≈ 16 MB; a steady state moves by GC
	// timing and pool growth only.
	const n, slack = 300, 2 << 20
	full := coldOps(compile.DefaultMaxEntries)
	after := coldOps(2 * n)
	if after > full+slack {
		t.Fatalf("live heap grew from %d to %d bytes over %d more cold ops: something retains per-expression state", full, after, 2*n)
	}
}

// TestColdPrepareAllocBudget is the dynamic path's allocation gate, the
// cold twin of the warm gates below: one op prepares a never-seen
// Q-criterion variant at O2, evaluates it on a 4³ mesh and closes it —
// the repo benchmark's cold_compile op — and may allocate at most 2 300
// objects (3 857 before sealed networks kept their order and the parser
// stopped allocating per token).
func TestColdPrepareAllocBudget(t *testing.T) {
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion", Opt: "O2"})
	if err != nil {
		t.Fatal(err)
	}
	m, fields := qcritOnMesh(t, 4)
	const runs = 50
	texts := make([]string, runs+1) // AllocsPerRun warms up with one extra call
	for i := range texts {
		texts[i] = fmt.Sprintf("%s\nt = q * %d.25 + %d", dfg.QCriterionExpr, 1000+i, i)
	}
	op := 0
	allocs := testing.AllocsPerRun(runs, func() {
		pr, err := eng.Prepare(texts[op])
		op++
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pr.EvalMesh(m, fields); err != nil {
			t.Fatal(err)
		}
		pr.Close()
	})
	t.Logf("cold prepare + eval + close: %.0f allocations", allocs)
	if allocs > 2300 {
		t.Errorf("a cold prepare + eval + close makes %.0f allocations, budget 2300", allocs)
	}
}

// TestWarmFusionGoHeapGate is the Go-heap half of the warm gate (the
// arena counters above only see device buffers): a warm Plan.Execute of
// Q-criterion under fusion on an 8³ mesh — one launch chunk, so the
// count is deterministic — may allocate the output array plus small
// bookkeeping, and no more objects than the same call made before the
// executor's register slab moved to the scratch pool (306 808 B per op,
// measured through Prepared.EvalMesh) — and exactly the 13 objects the
// repo benchmark's small_hot workload reads, so the evaluation core
// cannot gain one unnoticed.
func TestWarmFusionGoHeapGate(t *testing.T) {
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	m, fields := qcritOnMesh(t, 8)
	pr, err := eng.Prepare(dfg.QCriterionExpr)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	eval := func() {
		if _, err := pr.EvalMesh(m, fields); err != nil {
			t.Fatal(err)
		}
	}
	eval() // cold: fills the arena and the scratch pool

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, eval)
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up with one extra call
	if outBytes := uint64(m.Cells() * 4); perOp > outBytes+4<<10 {
		t.Errorf("warm eval allocates %d B/op, want at most the %d B output + 4 KB", perOp, outBytes)
	}
	if allocs > 13 {
		t.Errorf("warm eval makes %.0f allocations/op, want at most 13", allocs)
	}
}
