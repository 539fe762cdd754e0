package dfg

import (
	"context"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dfg/internal/obs"
	"dfg/internal/ocl"
	"dfg/internal/strategy"
	"dfg/internal/vortex"
)

// tinyGPU builds an engine on the paper's Tesla M2050 spec with its
// global memory shrunk to capacity bytes, recovery armed (backoff waits
// do not really sleep), and an instrumented registry. The 3 GB M2050 is
// exactly the device whose missing Table II entries motivated the
// ladder; shrinking its memory reproduces those failures at test scale.
func tinyGPU(t *testing.T, capacity int64) (*Engine, *obs.Registry) {
	t.Helper()
	spec := ocl.TeslaM2050Spec(1)
	spec.GlobalMemSize = capacity
	spec.MaxAllocSize = capacity
	eng, err := NewWith(ocl.NewDevice(spec), "fusion", nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng.Instrument(nil, reg)
	eng.SetRecovery(0)
	eng.rec.sleep = func(time.Duration) {}
	return eng, reg
}

// TestRecoveryConstants pins the retry policy and the ladder, recorded
// from the configurable policy they replaced at its defaults: the rung
// order and the first five jittered backoffs for the seeds serve gives
// workers 0 and 1.
func TestRecoveryConstants(t *testing.T) {
	var labels []string
	for _, ru := range ladder {
		labels = append(labels, ru.String())
	}
	if s, _ := strategy.ForName("streaming"); !slices.Contains(ladder, s) {
		t.Errorf("ForName(streaming) = %v is not a ladder rung", s)
	}
	want := []string{"fusion", "staged", "roundtrip", "streaming@4", "streaming@16", "streaming@64", "streaming@256", "vm"}
	if !slices.Equal(labels, want) {
		t.Fatalf("ladder = %q, want %q", labels, want)
	}
	for seed, want := range map[int64][]time.Duration{
		1: {1104660, 2881018, 4658240, 7501713, 14794199},
		2: {667296, 1530108, 2205952, 4951819, 17828329},
	} {
		eng, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetRecovery(seed)
		for i, w := range want {
			if got := eng.rec.backoff(i + 1); got != w {
				t.Errorf("seed %d: backoff(%d) = %d, want %d", seed, i+1, got, w)
			}
		}
	}
}

// TestOOMUnderFusionRecoversViaLadder is the flagship scenario: on a
// memory-starved M2050 spec, Q-criterion OOMs under fusion (and under
// staged and roundtrip — the paper's failed GPU cases), and the
// degradation ladder lands on a streaming rung that completes. The
// recovered result must agree to zero ULP with the same evaluation on
// a capacious reference device, dfg_fallback_total must record the
// ladder walk, and closing the handle must return the device to its
// baseline live-buffer count.
func TestOOMUnderFusionRecoversViaLadder(t *testing.T) {
	m, err := NewUniformMesh(Dims{NX: 16, NY: 16, NZ: 32}, 1.0/16, 1.0/16, 1.0/32)
	if err != nil {
		t.Fatal(err)
	}
	f := GenerateRT(m, 17)
	n := m.Cells()

	// Capacity below every whole-grid strategy's working set (7 scalar
	// arrays at 4 B/cell already exceed it) but above a small tile's.
	eng, reg := tinyGPU(t, 9*int64(n))
	baseline := eng.LiveBuffers()

	// Fail-fast sanity: without recovery this is the paper's terminal
	// OOM.
	plain, err := NewWith(eng.env.Device(), "fusion", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.EvalOnMesh(QCriterionExpr, m, FieldInputs(f)); !errors.Is(err, ocl.ErrOutOfDeviceMemory) && !errors.Is(err, ocl.ErrAllocTooLarge) {
		t.Fatalf("memory-starved fusion without recovery: got %v, want capacity fault", err)
	}

	ref, err := New(Config{Device: CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.EvalOnMesh(QCriterionExpr, m, FieldInputs(f))
	if err != nil {
		t.Fatal(err)
	}

	pr, err := eng.Prepare(QCriterionExpr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pr.EvalMesh(m, FieldInputs(f))
	if err != nil {
		t.Fatalf("ladder did not recover the paper's failed GPU case: %v", err)
	}
	deg := pr.Degraded()
	if len(deg) < len("streaming@") || deg[:len("streaming@")] != "streaming@" {
		t.Fatalf("expected to land on a streaming rung, landed on %q", deg)
	}
	// Zero-ULP agreement with the reference evaluation (streaming is
	// bitwise-identical to fusion, so the ladder loses nothing).
	for i := range want.Data {
		if math.Float32bits(res.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("cell %d: recovered %v != reference %v (non-zero ULP)", i, res.Data[i], want.Data[i])
		}
	}
	// The ladder's walk is visible in dfg_fallback_total: fusion ->
	// staged -> roundtrip -> streaming@4 -> ... -> the landing rung.
	firstEdge := reg.Counter("dfg_fallback_total", "", obs.Labels{"from": "fusion", "to": "staged"}).Value()
	if firstEdge < 1 {
		t.Fatal("dfg_fallback_total{from=fusion,to=staged} was not incremented")
	}
	lastEdge := reg.Counter("dfg_fallback_total", "", obs.Labels{"from": "roundtrip", "to": "streaming@4"}).Value()
	if lastEdge < 1 {
		t.Fatal("dfg_fallback_total{from=roundtrip,to=streaming@4} was not incremented")
	}

	// Warm re-evaluation starts at the parked rung: no new fallbacks.
	before := firstEdge
	res2, err := pr.EvalMesh(m, FieldInputs(f))
	if err != nil {
		t.Fatalf("warm degraded eval: %v", err)
	}
	for i := range want.Data {
		if math.Float32bits(res2.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("warm cell %d differs", i)
		}
	}
	if after := reg.Counter("dfg_fallback_total", "", obs.Labels{"from": "fusion", "to": "staged"}).Value(); after != before {
		t.Fatalf("warm eval re-walked the ladder: fallback count %d -> %d", before, after)
	}

	pr.Close()
	if got := eng.LiveBuffers(); got != baseline {
		t.Fatalf("after Close: %d live buffers, want baseline %d", got, baseline)
	}
	if used := usedBytes(eng.env.Context()); used != 0 {
		t.Fatalf("after Close: %d bytes still allocated", used)
	}
}

// TestTransientRetrySucceeds pins the retry path: a one-shot injected
// kernel failure is retried with backoff and the evaluation succeeds,
// incrementing dfg_retries_total.
func TestTransientRetrySucceeds(t *testing.T) {
	var slept []time.Duration
	eng, reg := tinyGPU(t, 1<<30)
	eng.rec.sleep = func(d time.Duration) { slept = append(slept, d) }

	eng.InjectFaults(ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultKernel, Nth: 0}))
	u := []float32{3, 1, 0}
	v := []float32{4, 2, 0}
	w := []float32{0, 2, 5}
	res, err := eng.Eval(VelocityMagnitudeExpr, 3, map[string][]float32{"u": u, "v": v, "w": w})
	if err != nil {
		t.Fatalf("retry did not recover a one-shot kernel fault: %v", err)
	}
	if math.Abs(float64(res.Data[0])-5) > 1e-6 {
		t.Fatalf("v_mag[0] = %v want 5", res.Data[0])
	}
	if got := reg.Counter("dfg_retries_total", "", obs.Labels{"strategy": "fusion"}).Value(); got != 1 {
		t.Fatalf("dfg_retries_total = %d, want 1", got)
	}
	if len(slept) != 1 {
		t.Fatalf("expected exactly one backoff sleep, got %v", slept)
	}
	if slept[0] <= 0 || slept[0] > 2*baseBackoff {
		t.Fatalf("first backoff %v outside (0, 2*base]", slept[0])
	}
}

// TestRetriesExhaust pins the budget: persistent transient faults
// surface the typed error once maxRetries is spent.
func TestRetriesExhaust(t *testing.T) {
	var slept int
	eng, _ := tinyGPU(t, 1<<30)
	eng.rec.sleep = func(time.Duration) { slept++ }
	eng.InjectFaults(ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultKernel, Nth: 0, Times: 100}))

	_, err := eng.Eval(VelocityMagnitudeExpr, 1, map[string][]float32{"u": {1}, "v": {0}, "w": {0}})
	if !errors.Is(err, ocl.ErrKernelFailed) {
		t.Fatalf("got %v, want wrapped ErrKernelFailed", err)
	}
	if slept != 3 {
		t.Fatalf("%d backoff sleeps before giving up, want 3", slept)
	}
	if eng.LiveBuffers() != 0 {
		t.Fatalf("exhausted retries leaked %d buffers", eng.LiveBuffers())
	}
}

// TestDeviceLostFallsToVM is the fault-ladder regression for the VM
// rung: under a latching device-lost fault, the default ladder jumps
// straight to the host VM, completes with the correct output, reports
// the degradation, and keeps serving warm evaluations on the VM while
// the device stays lost.
func TestDeviceLostFallsToVM(t *testing.T) {
	var slept int
	eng, reg := tinyGPU(t, 1<<30)
	eng.rec.sleep = func(time.Duration) { slept++ }
	eng.InjectFaults(ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultAny, Nth: 0, Effect: ocl.EffectDeviceLost}))

	pr, err := eng.Prepare(VelocityMagnitudeExpr)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	in := map[string][]float32{"u": {3, 1, 0}, "v": {4, 2, 0}, "w": {0, 2, 5}}
	res, err := pr.Eval(3, in)
	if err != nil {
		t.Fatalf("vm rung did not rescue the lost device: %v", err)
	}
	if math.Abs(float64(res.Data[0])-5) > 1e-6 || math.Abs(float64(res.Data[1])-3) > 1e-6 || math.Abs(float64(res.Data[2])-5) > 1e-6 {
		t.Fatalf("vm result wrong: %v", res.Data)
	}
	if res.Profile.Kernels != 0 || res.Profile.Writes != 0 || res.Profile.Reads != 0 {
		t.Fatalf("rescued run touched the lost device: %+v", res.Profile)
	}
	if slept != 0 {
		t.Fatal("device loss must jump to the vm rung without backoff sleeps")
	}
	if got := pr.Degraded(); got != "vm" {
		t.Fatalf("Degraded() = %q, want vm", got)
	}
	if !eng.DeviceLost() {
		t.Fatal("device must stay latched lost — the vm rescue does not heal it")
	}
	if got := reg.Counter("dfg_fallback_total", "", obs.Labels{"from": "fusion", "to": "vm"}).Value(); got != 1 {
		t.Fatalf("dfg_fallback_total{fusion->vm} = %d, want 1", got)
	}

	// Warm evaluation starts on the parked vm rung: no second fallback.
	if _, err := pr.Eval(3, in); err != nil {
		t.Fatalf("warm vm eval: %v", err)
	}
	if got := reg.Counter("dfg_fallback_total", "", obs.Labels{"from": "fusion", "to": "vm"}).Value(); got != 1 {
		t.Fatalf("warm eval re-fell: fallback count %d", got)
	}
}

// TestHealRestoresPrimaryAfterVMRescue: a device-lost degradation is
// not a property of the plan — once the device heals, the prepared
// expression returns to its primary rung, and the next evaluation
// really runs on the device again.
func TestHealRestoresPrimaryAfterVMRescue(t *testing.T) {
	eng, _ := tinyGPU(t, 1<<30)
	eng.InjectFaults(ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultAny, Nth: 0, Effect: ocl.EffectDeviceLost}))

	pr, err := eng.Prepare(VelocityMagnitudeExpr)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	in := map[string][]float32{"u": {3, 1, 0}, "v": {4, 2, 0}, "w": {0, 2, 5}}
	if _, err := pr.Eval(3, in); err != nil {
		t.Fatal(err)
	}
	if got := pr.Degraded(); got != "vm" {
		t.Fatalf("Degraded() = %q, want vm", got)
	}

	eng.InjectFaults(nil)
	eng.Heal()
	if got := pr.Degraded(); got != "" {
		t.Fatalf("Degraded() after Heal = %q, want \"\"", got)
	}
	res, err := pr.Eval(3, in)
	if err != nil {
		t.Fatalf("post-heal eval: %v", err)
	}
	if res.Profile.Kernels == 0 {
		t.Fatal("post-heal eval launched no kernels — still on the vm rung")
	}
	if math.Abs(float64(res.Data[0])-5) > 1e-6 {
		t.Fatalf("post-heal v_mag[0] = %v want 5", res.Data[0])
	}
}

// TestCanceledContextStopsRecovery pins that a done context halts the
// recovery loop instead of burning retries on a request nobody wants.
func TestCanceledContextStopsRecovery(t *testing.T) {
	var slept int
	eng, _ := tinyGPU(t, 1<<30)
	eng.rec.sleep = func(time.Duration) { slept++ }

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pr, err := eng.Prepare(VelocityMagnitudeExpr)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	_, err = pr.EvalContext(ctx, 1, map[string][]float32{"u": {1}, "v": {0}, "w": {0}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if slept != 0 {
		t.Fatal("canceled request must not retry")
	}
}

// TestPreparedCloseIdempotent is the satellite regression: double (and
// concurrent-with-nothing repeated) Close must surrender the prepCount
// reference exactly once and never double-drain someone else's arena.
func TestPreparedCloseIdempotent(t *testing.T) {
	eng, err := New(Config{Device: CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Prepare(VelocityMagnitudeExpr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Prepare(QCriterionExpr)
	if err != nil {
		t.Fatal(err)
	}
	if *eng.prepCount != 2 {
		t.Fatalf("prepCount = %d, want 2", *eng.prepCount)
	}
	a.Close()
	a.Close() // double-Close: must be a no-op
	a.Close()
	if *eng.prepCount != 1 {
		t.Fatalf("prepCount after triple-Close of one handle = %d, want 1", *eng.prepCount)
	}
	if _, err := a.Eval(3, map[string][]float32{"u": {3, 1, 0}, "v": {4, 2, 0}, "w": {0, 2, 5}}); err == nil {
		t.Fatal("Eval on closed Prepared must fail")
	}
	b.Close()
	b.Close()
	if *eng.prepCount != 0 {
		t.Fatalf("prepCount = %d, want 0", *eng.prepCount)
	}
	// Arena Drain idempotence: extra drains on an already-drained arena
	// are no-ops.
	pool := eng.env.Context().Pool()
	pool.Drain()
	pool.Drain()
	if got := eng.LiveBuffers(); got != 0 {
		t.Fatalf("%d live buffers after drains", got)
	}
}

// TestLadderDrainsOnEveryFailure sweeps injected alloc failures across
// the ladder walk and asserts the arena is back at baseline whether or
// not the walk succeeds — the "always drains back to baseline on every
// error path" guarantee.
func TestLadderDrainsOnEveryFailure(t *testing.T) {
	m, err := NewUniformMesh(Dims{NX: 8, NY: 8, NZ: 16}, 1.0/8, 1.0/8, 1.0/16)
	if err != nil {
		t.Fatal(err)
	}
	f := GenerateRT(m, 17)
	n := m.Cells()

	for k := 0; k < 40; k++ {
		eng, _ := tinyGPU(t, 9*int64(n))
		// On top of the capacity starvation, fail the k-th allocation
		// outright, moving the failure point across the whole walk.
		eng.InjectFaults(ocl.NewFaultPlan(int64(k)).Add(ocl.FaultRule{Op: ocl.FaultAlloc, Nth: k}))
		pr, err := eng.Prepare(QCriterionExpr)
		if err != nil {
			t.Fatal(err)
		}
		_, evalErr := pr.EvalMesh(m, FieldInputs(f))
		pr.Close()
		if got := eng.LiveBuffers(); got != 0 {
			t.Fatalf("k=%d (err=%v): %d live buffers after Close, want 0", k, evalErr, got)
		}
		if used := usedBytes(eng.env.Context()); used != 0 {
			t.Fatalf("k=%d: %d bytes still allocated", k, used)
		}
	}
}

// TestQCritAgainstHostGolden keeps the recovered result honest against
// the pure-host physics reference within the established cross-
// implementation tolerance.
func TestRecoveredMatchesHostGolden(t *testing.T) {
	m, err := NewUniformMesh(Dims{NX: 16, NY: 16, NZ: 32}, 1.0/16, 1.0/16, 1.0/32)
	if err != nil {
		t.Fatal(err)
	}
	f := GenerateRT(m, 17)
	golden := vortex.QCriterion(f.U, f.V, f.W, m)

	eng, _ := tinyGPU(t, 9*int64(m.Cells()))
	res, err := eng.EvalOnMesh(QCriterionExpr, m, FieldInputs(f))
	if err != nil {
		t.Fatal(err)
	}
	for i := range golden {
		if d := math.Abs(float64(res.Data[i] - golden[i])); d > 0.5 {
			t.Fatalf("cell %d: recovered %v vs host golden %v (|d|=%v)", i, res.Data[i], golden[i], d)
		}
	}
}

// usedBytes is the context's current allocation: ResetPeak lowers the
// high-water mark to it.
func usedBytes(ctx *ocl.Context) int64 {
	ctx.ResetPeak()
	return ctx.Peak()
}

// TestMergedAndSoloDegradeUnderTheirOwnDefinition: a handle that
// degrades re-plans the network it holds, so a Define installed after
// Prepare cannot reach its fallback rung. Re-planning the handle's text
// instead answered u*3+1 from a handle prepared under scale = u*2, and
// parked that answer. Each case runs one text, or a merged pair with
// one member reading the definition; a fresh Prepare sees the new one.
func TestMergedAndSoloDegradeUnderTheirOwnDefinition(t *testing.T) {
	const n = 64
	in := map[string][]float32{"u": make([]float32, n), "v": make([]float32, n)}
	for i := range n {
		in["u"][i], in["v"][i] = float32(i)+1, float32(i%5)-2
	}
	// want evaluates texts alone on a fault-free engine under a scale
	// definition.
	want := func(scale string, texts []string) [][]float32 {
		ref, err := New(Config{Device: CPU, Strategy: "fusion"})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Define("scale", scale); err != nil {
			t.Fatal(err)
		}
		var out [][]float32
		for _, text := range texts {
			res, err := ref.Eval(text, n, in)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Data)
		}
		return out
	}
	for _, texts := range [][]string{
		{"r = scale + 1"},
		{"r = scale + 1", "r = u * v"},
	} {
		t.Run(strconv.Itoa(len(texts)), func(t *testing.T) {
			eng, _ := tinyGPU(t, 1<<30)
			if err := eng.Define("scale", "u * 2"); err != nil {
				t.Fatal(err)
			}
			pr, err := eng.Prepare(texts...)
			if err != nil {
				t.Fatal(err)
			}
			defer pr.Close()
			if err := eng.Define("scale", "u * 3"); err != nil {
				t.Fatal(err)
			}
			eng.InjectFaults(ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultAlloc, Nth: 0, Effect: ocl.EffectError}))
			own := want("u * 2", texts)
			for _, pass := range []string{"degraded", "warm"} {
				res, err := pr.Eval(n, in)
				if err != nil {
					t.Fatalf("%s eval: %v", pass, err)
				}
				if got := pr.Degraded(); got != "staged" {
					t.Fatalf("%s eval: Degraded() = %q, want staged", pass, got)
				}
				for k := range texts {
					got := res.Data
					if len(texts) > 1 {
						got = res.Members[k].Data
					}
					for i := range own[k] {
						if math.Float32bits(got[i]) != math.Float32bits(own[k][i]) {
							t.Fatalf("%s eval, member %d, element %d: %v, want %v under the handle's own definition",
								pass, k, i, got[i], own[k][i])
						}
					}
				}
			}
			fresh, err := eng.Prepare(texts[0])
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			res, err := fresh.Eval(n, in)
			if err != nil {
				t.Fatal(err)
			}
			if now := want("u * 3", texts[:1])[0]; !slices.Equal(res.Data, now) {
				t.Fatalf("fresh Prepare after Define: %v, want %v", res.Data[:4], now[:4])
			}
		})
	}
}

// TestMergedCapacityFaultLandsOnNextRung: a memory-starved merged run
// walks the degradation ladder as a whole onto a streaming rung — every
// member answered at zero ULP against a capacious fusion reference —
// parks the rung for warm evaluations, and drains on Close.
func TestMergedCapacityFaultLandsOnNextRung(t *testing.T) {
	m, err := NewUniformMesh(Dims{NX: 16, NY: 16, NZ: 32}, 1.0/16, 1.0/16, 1.0/32)
	if err != nil {
		t.Fatal(err)
	}
	f := GenerateRT(m, 17)
	texts := []string{QCriterionExpr, VorticityMagnitudeExpr}

	ref, err := New(Config{Device: CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]float32
	for _, text := range texts {
		res, err := ref.EvalOnMesh(text, m, FieldInputs(f))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Data)
	}

	// Below every whole-grid plan's working set, as in
	// TestOOMUnderFusionRecoversViaLadder.
	eng, reg := tinyGPU(t, 9*int64(m.Cells()))
	baseline := eng.LiveBuffers()
	pr, err := eng.Prepare(texts...)
	if err != nil {
		t.Fatal(err)
	}
	firstEdge := func() int64 {
		return reg.Counter("dfg_fallback_total", "", obs.Labels{"from": "fusion", "to": "staged"}).Value()
	}
	var edges int64
	for _, pass := range []string{"degraded", "warm"} {
		res, err := pr.EvalMesh(m, FieldInputs(f))
		if err != nil {
			t.Fatalf("%s eval: %v", pass, err)
		}
		if deg := pr.Degraded(); !strings.HasPrefix(deg, "streaming@") {
			t.Fatalf("%s eval landed on %q, want a streaming rung", pass, deg)
		}
		for k := range texts {
			for i, w := range want[k] {
				if g := res.Members[k].Data[i]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("%s eval, member %d, cell %d: %v, want %v", pass, k, i, g, w)
				}
			}
		}
		if pass == "degraded" {
			if edges = firstEdge(); edges < 1 {
				t.Fatal("dfg_fallback_total{from=fusion,to=staged} was not incremented")
			}
		} else if got := firstEdge(); got != edges {
			t.Fatalf("warm eval re-walked the ladder: fallback count %d -> %d", edges, got)
		}
	}
	pr.Close()
	if got := eng.LiveBuffers(); got != baseline {
		t.Fatalf("after Close: %d live buffers, want baseline %d", got, baseline)
	}
}
