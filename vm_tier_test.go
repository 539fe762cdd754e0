package dfg_test

// Engine-level tests for the tiered execution model and the host
// bytecode VM: threshold routing through the public Config surface,
// WithStrategy derived views, and the VM's zero-allocation warm path
// through Prepared.Eval (the engine-level face of the strategy-package
// and vm-package gates).

import (
	"math"
	"testing"

	"dfg"
	"dfg/internal/vm"
)

// usedVM reports whether a result came from the host VM tier: a VM run
// touches the device for nothing, so its profile carries no events.
func usedVM(res *dfg.Result) bool {
	return res.Profile.Kernels == 0 && res.Profile.Writes == 0 && res.Profile.Reads == 0
}

// tierInputs builds n-element u/v/w arrays for the velocity-magnitude
// expression.
func tierInputs(n int) map[string][]float32 {
	u := make([]float32, n)
	v := make([]float32, n)
	w := make([]float32, n)
	for i := 0; i < n; i++ {
		u[i] = float32(i%13) - 6
		v[i] = 0.5 * float32(i%7)
		w[i] = float32(i%3) + 0.25
	}
	return map[string][]float32{"u": u, "v": v, "w": w}
}

// TestEngineTieredThreshold drives the tier boundary through the public
// Config: under Strategy "tiered@N", sizes strictly below N run on the
// host VM, at or above on the device, stably across repeated Prepare
// calls, with identical results either side of the plan cache.
func TestEngineTieredThreshold(t *testing.T) {
	const th = 100
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "tiered@100"})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{th - 1, th, 1, 2 * th} {
		in := tierInputs(n)
		pr, err := eng.Prepare(dfg.VelocityMagnitudeExpr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pr.Eval(n, in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		wantVM := n < th
		if usedVM(res) != wantVM {
			t.Fatalf("n=%d: usedVM=%v, want %v (profile %+v)", n, usedVM(res), wantVM, res.Profile)
		}
		// A second Prepare resolves the same cached plan and must route
		// identically, bit for bit.
		pr2, err := eng.Prepare(dfg.VelocityMagnitudeExpr)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := pr2.Eval(n, in)
		if err != nil {
			t.Fatal(err)
		}
		if usedVM(res2) != wantVM {
			t.Fatalf("n=%d: re-prepared routing flipped", n)
		}
		for i := range res.Data {
			if math.Float32bits(res.Data[i]) != math.Float32bits(res2.Data[i]) {
				t.Fatalf("n=%d element %d: %v vs %v across Prepare calls", n, i, res.Data[i], res2.Data[i])
			}
		}
		pr2.Close()
		pr.Close()
	}
	if eng.LiveBuffers() != 0 {
		t.Fatalf("%d live buffers after closes", eng.LiveBuffers())
	}
}

// TestWithStrategyDerivedView: a WithStrategy view executes under the
// new strategy with bitwise-identical results, while the receiver keeps
// its own; same-strategy and empty names return the receiver unchanged
// and bad names fail.
func TestWithStrategyDerivedView(t *testing.T) {
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	in := tierInputs(n)
	base, err := eng.Eval(dfg.VelocityMagnitudeExpr, n, in)
	if err != nil {
		t.Fatal(err)
	}
	if usedVM(base) {
		t.Fatalf("fusion engine ran on the vm: %+v", base.Profile)
	}

	vmEng, err := eng.WithStrategy("vm")
	if err != nil {
		t.Fatal(err)
	}
	if vmEng == eng {
		t.Fatal("WithStrategy(vm) returned the fusion receiver")
	}
	if vmEng.Strategy() != "vm" {
		t.Fatalf("derived strategy = %q", vmEng.Strategy())
	}
	vres, err := vmEng.Eval(dfg.VelocityMagnitudeExpr, n, in)
	if err != nil {
		t.Fatal(err)
	}
	if !usedVM(vres) {
		t.Fatalf("vm view touched the device: %+v", vres.Profile)
	}
	for i := range base.Data {
		if math.Float32bits(base.Data[i]) != math.Float32bits(vres.Data[i]) {
			t.Fatalf("element %d: vm %v vs fusion %v", i, vres.Data[i], base.Data[i])
		}
	}
	// The receiver is untouched by the derived view.
	if eng.Strategy() != "fusion" {
		t.Fatalf("receiver strategy mutated to %q", eng.Strategy())
	}

	if same, err := eng.WithStrategy(""); err != nil || same != eng {
		t.Fatalf("WithStrategy(\"\") = %v, %v, want the receiver", same, err)
	}
	if same, err := eng.WithStrategy("fusion"); err != nil || same != eng {
		t.Fatalf("WithStrategy(fusion) on a fusion engine = %v, %v, want the receiver", same, err)
	}
	if _, err := eng.WithStrategy("warp"); err == nil {
		t.Fatal("WithStrategy(warp) must fail")
	}
}

// TestPreparedVMWarmPathZeroScratchAllocs is the warm-path allocation
// gate at the engine level: after the first Prepared eval on the VM,
// repeated evaluations draw every scratch slice from the VM's host
// pool — zero fresh pool allocations — and never touch device memory.
func TestPreparedVMWarmPathZeroScratchAllocs(t *testing.T) {
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "vm"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dfg.NewUniformMesh(dfg.Dims{NX: 8, NY: 8, NZ: 8}, 1.0/8, 1.0/8, 1.0/8)
	if err != nil {
		t.Fatal(err)
	}
	f := dfg.GenerateRT(m, 7)
	fields := dfg.FieldInputs(f)

	pr, err := eng.Prepare(dfg.QCriterionExpr)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()

	vm.DrainPool()
	before := vm.Stats()
	cold, err := pr.EvalMesh(m, fields)
	if err != nil {
		t.Fatal(err)
	}
	afterCold := vm.Stats()
	if afterCold.Allocs == before.Allocs {
		t.Fatal("cold eval allocated no scratch after a drain")
	}
	for i := 0; i < 5; i++ {
		warm, err := pr.EvalMesh(m, fields)
		if err != nil {
			t.Fatal(err)
		}
		for j := range cold.Data {
			if math.Float32bits(cold.Data[j]) != math.Float32bits(warm.Data[j]) {
				t.Fatalf("warm eval %d diverged at element %d", i, j)
			}
		}
	}
	afterWarm := vm.Stats()
	if got := afterWarm.Allocs - afterCold.Allocs; got != 0 {
		t.Fatalf("warm evals allocated %d fresh scratch slices, want 0", got)
	}
	if afterWarm.Reuses == afterCold.Reuses {
		t.Fatal("warm evals reused nothing from the pool")
	}
	if eng.LiveBuffers() != 0 {
		t.Fatalf("vm engine holds %d device buffers", eng.LiveBuffers())
	}
}
