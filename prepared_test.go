package dfg_test

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"dfg"
	"dfg/internal/compile"
)

// TestPreparedWarmEvalReusesEverything: Prepare once, Eval repeatedly —
// the warm evals must allocate no fresh device buffers, bind each of the
// caller's sources to its resident slot (one modeled upload apiece: the
// caller did not declare them stable), and reproduce the cold output
// bitwise. Close must drain the arena back to the pre-Prepare level.
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
		if warm.Profile.Writes != 3 {
			t.Fatalf("warm eval %d uploaded %d sources, want 3 (u, v, w)", i, warm.Profile.Writes)
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
	if afterWarm.Uploads-afterCold.Uploads != 9 || afterWarm.UploadsSkipped != 0 {
		t.Fatalf("warm evals made %d resident uploads and %d skips, want 9 and 0", afterWarm.Uploads-afterCold.Uploads, afterWarm.UploadsSkipped)
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
func qcritOnMesh(t testing.TB, edge int) (*dfg.Mesh, map[string][]float32) {
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
// the repo benchmark's cold_compile op — and may allocate at most 108
// objects (113 under the race detector). It reads 108 (110 before the
// builder took every node's input list from one chunk sized by the
// parse's count, 112 before CSE kept its chains behind the run's
// position slice, 121 before the
// compile cache keyed networks by a value instead of a hex string and a
// pipeline run's passes shared one position slice and one removed-ID
// array, 140 before the parse sized its AST chunks and the builder
// the network's node list, first node chunk and name index from the
// parse's counts, 142 before tokens were numbered and pooled and the
// network indexed no minted ID, 163 before each pass sized its
// removed-ID list once and the builder's scopes were presized, 192
// while the network indexed every node's name and each parse made its
// own token slice, 210 while the passes rewired inputs by name): the
// parse takes its AST nodes from one chunk per node type, the network
// its nodes and the builder's input lists from one chunk each of the
// counted size (a pass's rewrites take theirs from 64-slot chunks), and
// each pass that merges or deletes nodes hands the network one position
// slice to compact by.
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
	budget := 108.0
	if raceBuild {
		budget = 113
	}
	if allocs > budget {
		t.Errorf("a cold prepare + eval + close makes %.0f allocations, budget %.0f", allocs, budget)
	}
}

// BenchmarkColdPrepare is the repo benchmark's cold_compile op as a Go
// benchmark and the profiling entry point for the dynamic path: each
// iteration prepares a never-seen Q-criterion variant at O2 (lex, LALR
// parse, network build, passes, plan), evaluates it once on a 4³ mesh
// and closes it. One of its allocations is the variant's text; the
// tail's constants keep a fixed digit count, so every variant costs the
// same to lex and parse.
func BenchmarkColdPrepare(b *testing.B) {
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion", Opt: "O2"})
	if err != nil {
		b.Fatal(err)
	}
	m, fields := qcritOnMesh(b, 4)
	text := []byte(dfg.QCriterionExpr + "\nt = q * 1.25 + ")
	stem := len(text)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text = strconv.AppendInt(text[:stem], int64(1e9+i), 10)
		pr, err := eng.Prepare(string(text))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pr.EvalMesh(m, fields); err != nil {
			b.Fatal(err)
		}
		pr.Close()
	}
}

// TestWarmEvalAllocatesItsAnswer is the warm path's Go-heap gate (the
// arena counters above only see device buffers). Once the arena and the
// scratch pool are warm, an untraced evaluation allocates its answer and
// nothing else: the output array and the *Result, in objects and in
// bytes. It covers the device strategy and the host VM over a mesh
// (Q-criterion on 8³, one launch chunk, so the count is deterministic)
// and named arrays (Prepared.Eval, and EvalContext with and without a
// deadline: a context that carries no span attaches nothing). Before
// bindings were read in place, launches bound into reused scratch and
// the event log was kept only for traced and one-shot runs, the fusion
// mesh case made 13 allocations (3 716 B): the figure the repo
// benchmark's small_hot workload read.
func TestWarmEvalAllocatesItsAnswer(t *testing.T) {
	m, fields := qcritOnMesh(t, 8)
	const n = 4096
	inputs := evalInputs(n)
	deadline, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, tc := range []struct {
		strategy, text string
		cells          int
		eval           func(*dfg.Prepared) (*dfg.Result, error)
	}{
		{"fusion", dfg.QCriterionExpr, m.Cells(), func(pr *dfg.Prepared) (*dfg.Result, error) { return pr.EvalMesh(m, fields) }},
		{"vm", dfg.QCriterionExpr, m.Cells(), func(pr *dfg.Prepared) (*dfg.Result, error) { return pr.EvalMesh(m, fields) }},
		{"fusion", "m = sqrt(u*u + v*v + w*w)", n, func(pr *dfg.Prepared) (*dfg.Result, error) { return pr.Eval(n, inputs) }},
		{"fusion", "m = sqrt(u*u + v*v + w*w)", n, func(pr *dfg.Prepared) (*dfg.Result, error) {
			return pr.EvalContext(context.Background(), n, inputs)
		}},
		{"fusion", "m = sqrt(u*u + v*v + w*w)", n, func(pr *dfg.Prepared) (*dfg.Result, error) {
			return pr.EvalContext(deadline, n, inputs)
		}},
	} {
		eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: tc.strategy})
		if err != nil {
			t.Fatal(err)
		}
		pr, err := eng.Prepare(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		var res *dfg.Result
		eval := func() {
			if res, err = tc.eval(pr); err != nil {
				t.Fatal(err)
			}
		}
		eval() // cold: fills the arena and the scratch pool

		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, eval)
		runtime.ReadMemStats(&after)
		pr.Close()
		perOp := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up with one extra call
		if allocs > 2 {
			t.Errorf("%s %q: warm eval makes %.0f allocations/op, want the output and the *Result", tc.strategy, tc.text, allocs)
		}
		if answer := uint64(tc.cells*4) + 256; perOp > answer {
			t.Errorf("%s %q: warm eval allocates %d B/op, want at most the %d B output plus the *Result", tc.strategy, tc.text, perOp, tc.cells*4)
		}
		if len(res.Events) != 0 {
			t.Errorf("%s %q: warm untraced eval copied out %d device events", tc.strategy, tc.text, len(res.Events))
		}
	}
}

// TestWarmEventLogOnlyWhenRead: a warm untraced evaluation leaves
// Result.Events empty while its Profile still counts the run; a traced
// warm evaluation and a one-shot Eval carry the per-event log, one event
// per profiled operation.
func TestWarmEventLogOnlyWhenRead(t *testing.T) {
	const n = 1024
	inputs := evalInputs(n)
	plain, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	traced, _, _ := instrumentedEngine(t)
	for _, tc := range []struct {
		name    string
		eng     *dfg.Engine
		prepare bool
		logged  bool
	}{
		{"warm untraced", plain, true, false},
		{"warm traced", traced, true, true},
		{"one-shot", plain, false, true},
	} {
		var res *dfg.Result
		if tc.prepare {
			pr, err := tc.eng.Prepare("m = u + v*w")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ { // the second run is warm
				if res, err = pr.Eval(n, inputs); err != nil {
					t.Fatal(err)
				}
			}
			pr.Close()
		} else if res, err = tc.eng.Eval("m = u + v*w", n, inputs); err != nil {
			t.Fatal(err)
		}
		if res.Profile.Kernels != 1 || res.Profile.Reads != 1 {
			t.Fatalf("%s: profile %+v, want one kernel and one read", tc.name, res.Profile)
		}
		if got, want := len(res.Events), res.Profile.Events(); tc.logged && got != want {
			t.Fatalf("%s: %d logged events, profile counts %d", tc.name, got, want)
		} else if !tc.logged && got != 0 {
			t.Fatalf("%s: %d logged events, want none", tc.name, got)
		}
	}
}
