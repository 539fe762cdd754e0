package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dfg"
	"dfg/internal/codegen"
	"dfg/internal/compile"
	"dfg/internal/expr"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/serve"
	"dfg/internal/strategy"
	"dfg/internal/vm"
)

// The traced run replays a workload's inputs through six phases, each a
// share of the window, timing the calls into each layer's public
// functions from outside. Every phase runs on the workload's own mesh
// and texts, so each workload reports every per-layer metric; the phase
// matching the workload's own op also alternates untraced ops, whose
// difference from the traced ones is trace.overhead_share.
const (
	shareDirect = 0.35
	shareVM     = 0.08
	shareChain  = 0.10
	shareCache  = 0.10
	shareCold   = 0.15
	shareServe  = 0.22
	// warmShare of each phase runs unrecorded first.
	warmShare = 0.1
	// traceMinSamples is the fewest spans a per-layer p05 is taken from.
	traceMinSamples = 20
	// allocEvery is how often an execute is bracketed by ReadMemStats.
	allocEvery = 16
)

// tracedRun is the state the phases share.
type tracedRun struct {
	in    *inputs
	lvl   passes.Level
	texts []expression // the hot set, or the stem for the cold workload
	dev   *ocl.Device
	// fusion is the strategy the hand-made plans use; bind the mesh
	// bindings every Plan.Execute gets.
	fusion strategy.Strategy
	bind   strategy.Bindings
	// sources is what a serve request or Prepared.Eval binds: the fields
	// plus the mesh-derived arrays grad3d reads.
	sources map[string][]float32
	next    int // cold variants consumed
	rec     *recorder
	lt      *layerTimes
	// untraced holds, per op kind, the plain ops' times in µs.
	untraced map[opKind][]float64
	// counts are the exact metrics, by name.
	counts map[string]float64
}

// phase runs body until its share of the window is spent and then folds
// the recorder. The first warmShare of the phase runs with round -1 and
// is not recorded.
func (t *tracedRun) phase(window time.Duration, share float64, body func(round int) error) error {
	budget := time.Duration(share * float64(window))
	start := time.Now()
	for time.Since(start) < time.Duration(warmShare*float64(budget)) {
		if err := body(-1); err != nil {
			return err
		}
	}
	t.rec.spans = t.rec.spans[:0]
	for round := 0; time.Since(start) < budget; round++ {
		if err := body(round); err != nil {
			return err
		}
	}
	return t.lt.add(t.rec)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// inTurn runs the plain and the spanned flavour of an op, swapping which
// goes first every round so neither always inherits the other's warm
// caches.
func inTurn(round int, plain, spanned func(round int) error) error {
	if round&1 == 1 {
		plain, spanned = spanned, plain
	}
	if err := plain(round); err != nil {
		return err
	}
	return spanned(round)
}

func runTraced(in *inputs, window time.Duration, o options) (*report, error) {
	// Verify outputs exactly as the end-to-end run does before timing
	// anything.
	s, _, err := open(in)
	if err != nil {
		return nil, err
	}
	s.close()

	lvl, err := passes.ParseLevel(in.spec.opt)
	if err != nil {
		return nil, err
	}
	dev, err := dfg.NewDeviceFor(engineConfig(in.spec))
	if err != nil {
		return nil, err
	}
	bind, err := strategy.BindMesh(in.mesh, in.fields)
	if err != nil {
		return nil, err
	}
	fusion, err := strategy.ForName("fusion")
	if err != nil {
		return nil, err
	}
	t := &tracedRun{
		in: in, lvl: lvl, dev: dev, texts: in.hot, fusion: fusion, bind: bind,
		sources:  map[string][]float32{},
		next:     1 << 16, // clear of the variants set-up and warm-up use
		rec:      newRecorder(time.Now(), 0, 1<<16),
		lt:       newLayerTimes(),
		untraced: map[opKind][]float64{},
		counts:   map[string]float64{},
	}
	if len(t.texts) == 0 {
		t.texts = []expression{in.stem}
	}
	for name, src := range bind.Sources {
		t.sources[name] = src.Data
	}

	for _, ph := range []func(time.Duration) error{t.direct, t.vm, t.chain, t.cache, t.cold, t.serve} {
		if err := ph(window); err != nil {
			return nil, err
		}
	}
	return t.report(o)
}

// direct alternates three flavours of the warm mesh evaluation: the
// plain call untimed by any span, the call inside one span, and the
// call decomposed by hand into BindMesh and Plan.Execute on an arena-
// backed environment, with the run's device events laid inside the
// execute span. A two-goroutine triad over same-size arrays runs in
// between as the reference the kernel time is compared with.
func (t *tracedRun) direct(window time.Duration) error {
	in := t.in
	text := t.texts[0].text
	eng, err := dfg.New(engineConfig(in.spec))
	if err != nil {
		return err
	}
	prep, err := eng.Prepare(text)
	if err != nil {
		return err
	}
	defer prep.Close()
	plan, _, err := compile.NewCompiler().PlanTracedAt(text, t.lvl, t.fusion, t.dev, nil)
	if err != nil {
		return err
	}
	env := ocl.NewEnv(t.dev)
	arena := env.Context().Pool()
	defer arena.Drain()

	n := in.mesh.Cells()
	ta, tb, tc := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range tb {
		tb[i], tc[i] = float32(i), 1
	}
	var minBytes, minAllocs uint64 = ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats

	plain := func(round int) error {
		t0 := time.Now()
		_, err := prep.EvalMesh(in.mesh, in.fields)
		if round >= 0 {
			t.untraced[directOp] = append(t.untraced[directOp], us(time.Since(t0)))
		}
		return err
	}
	spanned := func(int) error {
		id := t.rec.begin("dfg.eval", -1)
		_, err := prep.EvalMesh(in.mesh, in.fields)
		t.rec.end(id)
		return err
	}

	err = t.phase(window, shareDirect, func(round int) error {
		if err := inTurn(round, plain, spanned); err != nil {
			return err
		}

		bracket := round >= 0 && round%allocEvery == 0
		stats0 := arena.Stats()
		op := t.rec.begin("op.direct", -1)
		id := t.rec.begin("strategy.bind", op)
		bind, err := strategy.BindMesh(in.mesh, in.fields)
		t.rec.end(id)
		if err != nil {
			return err
		}
		if bracket {
			runtime.ReadMemStats(&before)
		}
		id = t.rec.begin("strategy.execute", op)
		env.SetPool(arena)
		res, err := plan.Execute(env, bind)
		env.SetPool(nil)
		t.rec.end(id)
		if bracket {
			runtime.ReadMemStats(&after)
			minBytes = min(minBytes, after.TotalAlloc-before.TotalAlloc)
			minAllocs = min(minAllocs, after.Mallocs-before.Mallocs)
		}
		if err != nil {
			return err
		}
		var wall [3]time.Duration // indexed by ocl.EventKind
		for _, ev := range res.Events {
			wall[ev.Kind] += ev.Wall
		}
		t.rec.place("ocl.write", id, 0, wall[ocl.WriteEvent])
		t.rec.place("ocl.kernel", id, wall[ocl.WriteEvent], wall[ocl.KernelEvent])
		t.rec.place("ocl.read", id, wall[ocl.WriteEvent]+wall[ocl.KernelEvent], wall[ocl.ReadEvent])
		t.rec.end(op)
		stats1 := arena.Stats()

		t.counts["ocl.kernels"] = float64(res.Profile.Kernels)
		t.counts["ocl.writes"] = float64(res.Profile.Writes)
		t.counts["ocl.reads"] = float64(res.Profile.Reads)
		t.counts["ocl.write_bytes"] = float64(res.Profile.WriteBytes)
		t.counts["ocl.read_bytes"] = float64(res.Profile.ReadBytes)
		t.counts["ocl.arena_hits"] = float64(stats1.Reused - stats0.Reused)
		t.counts["ocl.upload_skips"] = float64(stats1.UploadsSkipped - stats0.UploadsSkipped)

		id = t.rec.begin("ref.triad", -1)
		triad(ta, tb, tc, 3)
		t.rec.end(id)
		return nil
	})
	t.counts["strategy.execute_heap_bytes"] = float64(minBytes)
	t.counts["strategy.execute_allocs"] = float64(minAllocs)
	return err
}

// triad computes a[i] = b[i] + s*c[i] on two goroutines, half the range
// each — the same split the simulated device gives a kernel.
func triad(a, b, c []float32, s float32) {
	half := len(a) / 2
	var wg sync.WaitGroup
	for _, r := range [][2]int{{0, half}, {half, len(a)}} {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				a[i] = b[i] + s*c[i]
			}
		}(r[0], r[1])
	}
	wg.Wait()
}

// vm times the "vm" strategy's Plan.Execute on the same mesh and
// bindings the direct phase gave fusion.
func (t *tracedRun) vm(window time.Duration) error {
	vmStrat, err := strategy.ForName("vm")
	if err != nil {
		return err
	}
	plan, _, err := compile.NewCompiler().PlanTracedAt(t.texts[0].text, t.lvl, vmStrat, t.dev, nil)
	if err != nil {
		return err
	}
	env := ocl.NewEnv(t.dev)
	return t.phase(window, shareVM, func(int) error {
		id := t.rec.begin("vm.execute", -1)
		_, err := plan.Execute(env, t.bind)
		t.rec.end(id)
		return err
	})
}

// chain walks one text through the compile-side layers by hand, one
// span per public call.
func (t *tracedRun) chain(window time.Duration) error {
	text := t.texts[0].text
	return t.phase(window, shareChain, func(int) error {
		op := t.rec.begin("op.chain", -1)
		id := t.rec.begin("expr.parse", op)
		prog, err := expr.Parse(text)
		t.rec.end(id)
		if err != nil {
			return err
		}
		id = t.rec.begin("expr.build", op)
		net, err := expr.BuildNetworkWithDefinitions(prog, nil)
		t.rec.end(id)
		if err != nil {
			return err
		}
		id = t.rec.begin("passes.o2", op)
		res, err := passes.ForLevel(passes.LevelO2).Run(net)
		t.rec.end(id)
		if err != nil {
			return err
		}
		net.Seal()
		id = t.rec.begin("codegen.fuse", op)
		fused, err := codegen.Fuse(net, "k")
		t.rec.end(id)
		if err != nil {
			return err
		}
		id = t.rec.begin("vm.compile", op)
		code, err := vm.Compile(net)
		t.rec.end(id)
		if err != nil {
			return err
		}
		id = t.rec.begin("strategy.plan", op)
		_, err = t.fusion.Plan(net, t.dev)
		t.rec.end(id)
		t.rec.end(op)
		t.counts["passes.nodes_removed"] = float64(res.NodesRemoved())
		t.counts["codegen.source_bytes"] = float64(len(fused.Source))
		t.counts["vm.instrs"] = float64(code.NumInstrs())
		return err
	})
}

// freshText returns a cold text no phase has used yet.
func (t *tracedRun) freshText() string {
	t.next++
	text, _, _ := t.in.variantText(t.next)
	return text
}

// cache times the shared compiler's front door on an unseen text (miss),
// on a cached one (hit), and its fingerprint alone.
func (t *tracedRun) cache(window time.Duration) error {
	text := t.texts[0].text
	comp := compile.NewCompiler()
	if _, _, err := comp.PlanTracedAt(text, t.lvl, t.fusion, t.dev, nil); err != nil {
		return err
	}
	return t.phase(window, shareCache, func(int) error {
		unseen := t.freshText()
		op := t.rec.begin("op.cache", -1)
		id := t.rec.begin("compile.miss", op)
		_, _, err := comp.PlanTracedAt(unseen, t.lvl, t.fusion, t.dev, nil)
		t.rec.end(id)
		if err != nil {
			return err
		}
		id = t.rec.begin("compile.hit", op)
		_, _, err = comp.PlanTracedAt(text, t.lvl, t.fusion, t.dev, nil)
		t.rec.end(id)
		id = t.rec.begin("compile.fingerprint", op)
		comp.FingerprintAt(text, t.lvl)
		t.rec.end(id)
		t.rec.end(op)
		return err
	})
}

// cold alternates the cold op plain and with a span around each of its
// three calls.
func (t *tracedRun) cold(window time.Duration) error {
	in := t.in
	eng, err := dfg.New(engineConfig(in.spec))
	if err != nil {
		return err
	}
	coldOnce := func(text string, traced bool) error {
		op, id := -1, -1
		if traced {
			op = t.rec.begin("op.cold", -1)
			id = t.rec.begin("dfg.prepare", op)
		}
		p, err := eng.Prepare(text)
		if err != nil {
			return err
		}
		if traced {
			t.rec.end(id)
			id = t.rec.begin("dfg.first_eval", op)
		}
		_, err = p.EvalMesh(in.mesh, in.fields)
		if traced {
			t.rec.end(id)
			id = t.rec.begin("dfg.close", op)
		}
		p.Close()
		if traced {
			t.rec.end(id)
			t.rec.end(op)
		}
		return err
	}
	plain := func(round int) error {
		text := t.freshText()
		t0 := time.Now()
		err := coldOnce(text, false)
		if round >= 0 {
			t.untraced[coldOp] = append(t.untraced[coldOp], us(time.Since(t0)))
		}
		return err
	}
	spanned := func(int) error { return coldOnce(t.freshText(), true) }
	return t.phase(window, shareCold, func(round int) error { return inTurn(round, plain, spanned) })
}

// serve drives a pool with two closed-loop clients, each alternating a
// plain Submit and an EvalAsync inside a span whose children are the
// response's own queue-wait and run times; then times the same
// expression evaluated directly on an engine of the pool's strategy.
func (t *tracedRun) serve(window time.Duration) error {
	in := t.in
	n := in.mesh.Cells()
	pool, err := serve.NewPool(poolConfig)
	if err != nil {
		return err
	}
	defer pool.Close()
	request := func(c, i int) serve.Request {
		k := 0
		if len(t.texts) > 1 {
			k = int(in.mix[c][i%mixLen])
		}
		return serve.Request{Expr: t.texts[k].text, N: n, Inputs: t.sources}
	}

	budget := time.Duration(shareServe * float64(window))
	poolBudget := budget * 3 / 4
	recs := make([]*recorder, serveClients)
	plain := make([][]float64, serveClients)
	errs := make([]error, serveClients)
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = newRecorder(t.rec.epoch, (c+1)<<40, 1<<16)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := recs[c]
			i := 0
			plainOp := func(int) error {
				t0 := time.Now()
				_, err := pool.Submit(ctx, request(c, 2*i))
				plain[c] = append(plain[c], us(time.Since(t0)))
				return err
			}
			spanned := func(int) error {
				id := rec.begin("serve.submit", -1)
				r := <-pool.EvalAsync(ctx, request(c, 2*i+1))
				rec.end(id)
				rec.place("serve.wait", id, 0, r.Wait)
				rec.place("serve.run", id, r.Wait, r.Run)
				return r.Err
			}
			for warm := true; time.Since(start) < poolBudget; i++ {
				if warm && time.Since(start) >= time.Duration(warmShare*float64(poolBudget)) {
					warm = false
					rec.spans, plain[c] = rec.spans[:0], plain[c][:0]
				}
				if errs[c] = inTurn(i, plainOp, spanned); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, rec := range recs {
		if errs[c] != nil {
			return errs[c]
		}
		t.untraced[serveOp] = append(t.untraced[serveOp], plain[c]...)
		if err := t.lt.add(rec); err != nil {
			return err
		}
	}
	st := pool.Stats()
	t.counts["serve.compiles"] = float64(st.Compiles)
	t.counts["serve.served"] = float64(st.Served)
	t.counts["serve.rejected"] = float64(st.Rejected)
	t.counts["serve.timeouts"] = float64(st.Expired)

	eng, err := dfg.New(dfg.Config{Device: poolConfig.Device, Strategy: poolConfig.Strategy, Opt: poolConfig.Opt})
	if err != nil {
		return err
	}
	prep, err := eng.Prepare(t.texts[0].text)
	if err != nil {
		return err
	}
	defer prep.Close()
	return t.phase(window, shareServe/4, func(int) error {
		id := t.rec.begin("serve.direct", -1)
		_, err := prep.Eval(n, t.sources)
		t.rec.end(id)
		return err
	})
}

// report derives every per-layer metric from the recorded spans and
// counts, prints each by name with its unit, and writes the trace file.
func (t *tracedRun) report(o options) (*report, error) {
	min := traceMinSamples
	if o.allowShort {
		min = 1
	}
	var firstErr error
	low := func(samples []float64, what string) float64 {
		v, err := p05(samples, min)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %s: %w", t.in.spec.name, what, err)
		}
		return v
	}
	dur := func(name string) float64 { return low(t.lt.durs[name], name) }
	self := func(name string) float64 { return low(t.lt.selfs[name], name+" self") }

	n := float64(t.in.mesh.Cells())
	v := map[string]float64{}
	for name, c := range t.counts {
		v[name] = c
	}
	for _, name := range []string{
		"expr.parse", "expr.build", "passes.o2", "codegen.fuse", "vm.compile", "strategy.plan",
		"compile.miss", "compile.hit", "compile.fingerprint", "strategy.bind", "strategy.execute",
		"ref.triad", "vm.execute", "dfg.prepare", "dfg.first_eval", "dfg.close",
		"serve.submit", "serve.wait", "serve.run",
	} {
		v[name+"_us"] = dur(name)
	}
	for _, kind := range []string{"write", "kernel", "read"} {
		v["ocl."+kind+"_wall_us"] = dur("ocl." + kind)
	}
	v["strategy.self_us"] = self("strategy.execute")
	v["serve.self_us"] = self("serve.submit")
	v["dfg.eval_self_us"] = dur("dfg.eval") - v["strategy.bind_us"] - v["strategy.execute_us"]
	v["codegen.ns_per_element"] = v["ocl.kernel_wall_us"] * 1e3 / n
	v["codegen.triads_per_eval"] = v["ocl.kernel_wall_us"] / v["ref.triad_us"]
	v["vm.ns_per_element"] = v["vm.execute_us"] * 1e3 / n
	v["exec.fusion_over_vm"] = v["strategy.execute_us"] / v["vm.execute_us"]
	v["serve.run_over_direct"] = v["serve.run_us"] / dur("serve.direct")

	// The traced flavour of the workload's own op against the plain one.
	traced := map[opKind]string{directOp: "dfg.eval", coldOp: "op.cold", serveOp: "serve.submit"}[t.in.spec.kind]
	plain := low(t.untraced[t.in.spec.kind], "untraced op")
	v["trace.overhead_share"] = (dur(traced) - plain) / plain
	if firstErr != nil {
		return nil, firstErr
	}
	if want := float64(len(t.texts)); v["serve.compiles"] != want {
		return nil, fmt.Errorf("%s: pool compiled %v expressions for a hot set of %v", t.in.spec.name, v["serve.compiles"], want)
	}
	if v["trace.overhead_share"] >= 0.05 && !o.allowShort {
		return nil, fmt.Errorf("%s: tracing overhead %.3f of the untraced op, limit 0.05", t.in.spec.name, v["trace.overhead_share"])
	}

	rep := &report{Correct: true, Attempted: t.lt.total, Metrics: map[string]metricValue{}}
	for _, d := range perLayer {
		val, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metricValue{val, d.unit}
		fmt.Printf("%-30s %14.4f %-6s moves %s\n", d.name, val, d.unit, d.moves)
	}
	if err := t.lt.write(o.out, t.in.spec.name, t.in.seed); err != nil {
		return nil, err
	}
	return rep, nil
}
