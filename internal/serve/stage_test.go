package serve

import (
	"context"
	"regexp"
	"slices"
	"testing"
	"time"

	"dfg"
	"dfg/internal/obs"
	"dfg/internal/obs/obstest"
	"dfg/internal/ocl"
)

// stageExpr is the text the stage tests serve.
const stageExpr = "m = sqrt(u*u + v*v + w*w)"

// lastTrace returns the pool's most recent finished trace.
func lastTrace(t *testing.T, p *Pool) *obs.Span {
	t.Helper()
	last := p.Tracer().Last(1)
	if len(last) != 1 {
		t.Fatalf("%d traces, want one", len(last))
	}
	return last[0]
}

// checkStages fails unless root's stages partition it and read want.
func checkStages(t *testing.T, what string, root *obs.Span, want ...string) {
	t.Helper()
	got, err := obstest.Stages(root)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: stages %q, want %q", what, got, want)
	}
}

// TestServedStagesPartitionTheRequest: on a handle miss and a hit, a
// merged batch, a request whose run was retried and one that degraded,
// each stage of the served trace starts at the exact instant its
// predecessor ended and the stages sum exactly to the root — by
// construction, so this holds on every run, not on the best of several.
func TestServedStagesPartitionTheRequest(t *testing.T) {
	const n = 4096
	in := testInputs(n)
	req := Request{Expr: stageExpr, N: n, Inputs: in}
	submit := func(p *Pool) {
		t.Helper()
		if _, err := p.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	p := newTestPool(t, Config{Workers: 1, Device: dfg.CPU, Strategy: "fusion"})
	submit(p)
	checkStages(t, "miss", lastTrace(t, p), "queue-wait", "compile", "plan", "bind", "execute")
	submit(p)
	checkStages(t, "hit", lastTrace(t, p), "queue-wait", "bind", "execute")

	for _, tc := range []struct {
		name string
		rule ocl.FaultRule
		want []string
	}{
		{"retried", ocl.FaultRule{Op: ocl.FaultKernel, Nth: 0, Effect: ocl.EffectError},
			[]string{"queue-wait", "compile", "plan", "bind", "execute", "retry", "execute"}},
		{"degraded", ocl.FaultRule{Op: ocl.FaultAlloc, Nth: 0, Effect: ocl.EffectError},
			[]string{"queue-wait", "compile", "plan", "bind", "execute", "fallback[plan]", "execute"}},
	} {
		p := newTestPool(t, Config{Workers: 1, Device: dfg.CPU, Strategy: "fusion",
			FaultPlanFor: func(int) *ocl.FaultPlan { return ocl.NewFaultPlan(1).Add(tc.rule) }})
		submit(p)
		checkStages(t, tc.name, lastTrace(t, p), tc.want...)
	}

	// A merged batch, built by hand so that it merges, and a lone
	// member that waited in a forming window.
	p, err := newPool(Config{Workers: 1, Device: dfg.CPU, Strategy: "fusion"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.startWorkers(); p.Close() })
	enq := time.Now()
	formed := enq.Add(time.Millisecond)
	member := func(expr string) *member {
		return &member{req: Request{Expr: expr, N: n, Inputs: in}, ctx: context.Background(), cancel: func() {},
			enqueued: enq, formed: formed, resp: make(chan Response, 1)}
	}
	for _, tc := range []struct {
		name  string
		exprs []string
		want  []string
	}{
		{"merged", batchExprs[:2], []string{"queue-wait", "compile", "compile", "merge", "plan", "bind", "execute"}},
		{"formed", batchExprs[:1], []string{"batch-forming", "queue-wait", "compile", "plan", "bind", "execute"}},
	} {
		j := &job{}
		for _, expr := range tc.exprs {
			j.members = append(j.members, member(expr))
		}
		members := slices.Clone(j.members)
		p.run(p.ws[0], j)
		for _, m := range members {
			if r := <-m.resp; r.Err != nil {
				t.Fatalf("%s: %v", tc.name, r.Err)
			}
		}
		checkStages(t, tc.name, lastTrace(t, p), tc.want...)
	}
}

// TestPerfRecordMatchesTrace: a served request's perf record and its
// trace are one measurement. On a miss and on a hit the record's trace
// ID resolves to the request's root, its queue wait is the queue-wait
// stage and its total the stages after it — exactly, and the response's
// Run is that total too.
func TestPerfRecordMatchesTrace(t *testing.T) {
	const n = 4096
	p := newTestPool(t, Config{Workers: 1, Device: dfg.CPU, Strategy: "fusion"})
	req := Request{Expr: stageExpr, N: n, Inputs: testInputs(n)}
	idForm := regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-f]+$`)
	for i, handle := range []string{"miss", "hit"} {
		r := <-p.EvalAsync(context.Background(), req)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		snap := p.PerfRecorder().Snapshot()
		if len(snap) != i+1 {
			t.Fatalf("%s: %d records, want %d", handle, len(snap), i+1)
		}
		rec := snap[i]
		if !idForm.MatchString(rec.TraceID) {
			t.Fatalf("%s: trace id %q", handle, rec.TraceID)
		}
		root := p.Tracer().ByID(rec.TraceID)
		if root == nil || root != lastTrace(t, p) || root.Attr("handle") != handle {
			t.Fatalf("%s: trace id %q resolves to %v, not the request's root", handle, rec.TraceID, root)
		}
		stages := root.Stages()
		if stages[0].Name != "queue-wait" {
			t.Fatalf("%s: first stage %q", handle, stages[0].Name)
		}
		if got, want := time.Duration(rec.QueueWaitNS), stages[0].Duration(); got != want {
			t.Errorf("%s: QueueWaitNS %v, queue-wait stage %v", handle, got, want)
		}
		var after time.Duration
		for _, st := range stages[1:] {
			after += st.Duration()
		}
		if got := time.Duration(rec.TotalNS); got != after || r.Run != after {
			t.Errorf("%s: TotalNS %v, Run %v, stages after the queue wait %v", handle, got, r.Run, after)
		}
		if got := time.Unix(0, rec.UnixNS); !got.Equal(root.End) {
			t.Errorf("%s: record stamped %v, trace ends %v", handle, got, root.End)
		}
	}
}
