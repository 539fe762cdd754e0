package dfg_test

// Integration tests for the observability layer threaded through the
// engine: span coverage of the pipeline stages, device events on their
// tracks, and the per-(fingerprint, strategy) latency histograms.

import (
	"slices"
	"strings"
	"testing"
	"time"

	"dfg"
	"dfg/internal/obs"
	"dfg/internal/obs/obstest"
	"dfg/internal/ocl"
	"dfg/internal/perfdb"
)

func instrumentedEngine(t *testing.T) (*dfg.Engine, *obs.Tracer, *obs.Registry) {
	t.Helper()
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(16)
	reg := obs.NewRegistry()
	eng.Instrument(tr, reg)
	return eng, tr, reg
}

func evalInputs(n int) map[string][]float32 {
	u := make([]float32, n)
	v := make([]float32, n)
	w := make([]float32, n)
	for i := 0; i < n; i++ {
		u[i] = float32(i%7) * 0.5
		v[i] = float32(i % 5)
		w[i] = float32(i%3) - 1
	}
	return map[string][]float32{"u": u, "v": v, "w": w}
}

// TestEvalTraceCoversWallTime is the acceptance check: the pipeline
// stages of a request's span tree sum to within 5% of the request's
// measured wall time, on a cold run and on a cache-hit run. The property
// is that the stages can cover the wall time, and one preempted
// inter-span gap says nothing about it, so each run is judged by the
// best of up to five attempts, each on a fresh engine.
func TestEvalTraceCoversWallTime(t *testing.T) {
	// Large enough that execution dominates and scheduling noise in the
	// inter-span gaps stays well under the 5% budget.
	const n = 1 << 18
	inputs := evalInputs(n)

	uncovered := [2]float64{1, 1} // best share of wall time outside the stages, per run
	for attempt := 0; attempt < 5 && max(uncovered[0], uncovered[1]) > 0.05; attempt++ {
		eng, tr, _ := instrumentedEngine(t)
		for i := range uncovered { // second run: cache-hit trace
			wallStart := time.Now()
			if _, err := eng.Eval("m = sqrt(u*u + v*v + w*w)", n, inputs); err != nil {
				t.Fatal(err)
			}
			wall := time.Since(wallStart)

			traces := tr.Last(1)
			if len(traces) != 1 {
				t.Fatalf("want 1 trace, got %d", len(traces))
			}
			root := traces[0]
			if root.Name != "eval" {
				t.Fatalf("root span = %q", root.Name)
			}
			var stages time.Duration
			for _, c := range root.Children { // compile, bind, execute
				stages += c.Duration()
			}
			if stages > wall {
				t.Fatalf("stage sum %v exceeds wall %v", stages, wall)
			}
			for _, stage := range []string{"compile", "parse", "cache", "bind", "execute"} {
				if root.Find(stage) == nil {
					t.Fatalf("trace lacks %q span", stage)
				}
			}
			uncovered[i] = min(uncovered[i], float64(wall-stages)/float64(wall))
		}
	}
	for i, share := range uncovered {
		if share > 0.05 {
			t.Fatalf("run %d: in the best of 5 attempts the stages leave %.1f%% of the wall time uncovered (> 5%%)", i, 100*share)
		}
	}
}

// TestEvalStagesPartitionTheRun: each stage of an engine's own trace
// starts at the exact instant its predecessor ended and the stages sum
// exactly to the root — a one-shot Eval cold and warm, a Prepare and a
// traced Prepared eval, and a run whose transient fault was retried —
// and a recorded run's perf record ends where its trace does.
func TestEvalStagesPartitionTheRun(t *testing.T) {
	const n = 4096
	const text = "m = sqrt(u*u + v*v + w*w)"
	inputs := evalInputs(n)
	eng, tr, _ := instrumentedEngine(t)
	rec := perfdb.NewRecorder(0)
	eng.SetPerfRecorder(rec)
	check := func(what string, want ...string) {
		t.Helper()
		root := tr.Last(1)[0]
		got, err := obstest.Stages(root)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: stages %q, want %q", what, got, want)
		}
	}
	for _, what := range []string{"cold", "warm"} {
		if _, err := eng.Eval(text, n, inputs); err != nil {
			t.Fatal(err)
		}
		check(what, "compile", "plan", "bind", "execute")
		root, last := tr.Last(1)[0], rec.Snapshot()
		r := last[len(last)-1]
		if r.TraceID != root.ID() || r.TotalNS != int64(root.Duration()) || r.PlanNS != int64(root.Stages()[2].Start.Sub(root.Start)) {
			t.Fatalf("%s: record %+v does not match its trace (lasts %v)", what, r, root.Duration())
		}
	}
	pr, err := eng.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	check("prepare", "compile", "plan")
	if _, err := pr.Eval(n, inputs); err != nil {
		t.Fatal(err)
	}
	check("prepared", "bind", "execute")

	eng.SetRecovery(1)
	eng.InjectFaults(ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultKernel, Nth: 0, Effect: ocl.EffectError}))
	if _, err := eng.Eval(text, n, inputs); err != nil {
		t.Fatal(err)
	}
	check("retried", "compile", "plan", "bind", "execute", "retry", "execute")
}

// TestEvalTraceDeviceEvents checks the device events ride along as
// fixed-time children on per-category tracks.
func TestEvalTraceDeviceEvents(t *testing.T) {
	eng, tr, _ := instrumentedEngine(t)
	res, err := eng.Eval("m = u + v", 1024, evalInputs(1024))
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Last(1)[0]
	exec := root.Find("execute")
	if exec == nil {
		t.Fatal("no execute span")
	}
	tracks := map[string]int{}
	for _, c := range exec.Children {
		tracks[c.Track]++
	}
	if len(res.Events) == 0 {
		t.Fatal("run recorded no device events")
	}
	total := tracks["host-to-device"] + tracks["kernel"] + tracks["device-to-host"]
	if total != len(res.Events) {
		t.Fatalf("attached %d device-event spans for %d events (%v)", total, len(res.Events), tracks)
	}
	if tracks["kernel"] == 0 || tracks["host-to-device"] == 0 {
		t.Fatalf("missing device tracks: %v", tracks)
	}
}

// TestEvalHistograms checks latency series are keyed by fingerprint and
// strategy and show up in the exposition.
func TestEvalHistograms(t *testing.T) {
	eng, _, reg := instrumentedEngine(t)
	inputs := evalInputs(512)
	for i := 0; i < 3; i++ {
		if _, err := eng.Eval("a = u + v", 512, inputs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Eval("b = u * w", 512, inputs); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE dfg_eval_seconds histogram") {
		t.Fatalf("no eval histogram family:\n%s", out)
	}
	if !strings.Contains(out, `strategy="fusion"`) {
		t.Fatalf("histogram not keyed by strategy:\n%s", out)
	}
	if n := strings.Count(out, "dfg_eval_seconds_count"); n != 2 {
		t.Fatalf("want 2 fingerprint series, got %d:\n%s", n, out)
	}
}

// TestUninstrumentedEngineUnchanged: a plain engine records nothing and
// still evaluates correctly (the nil-tracer no-op path).
func TestUninstrumentedEngineUnchanged(t *testing.T) {
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Eval("m = u + v", 64, evalInputs(64))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 64 {
		t.Fatalf("bad result length %d", len(res.Data))
	}
}
