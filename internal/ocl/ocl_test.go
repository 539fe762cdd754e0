package ocl

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// testDevice returns a small GPU-like device for tests: 1 MiB of global
// memory so allocation failures are easy to provoke.
func testDevice() *Device {
	return NewDevice(DeviceSpec{
		Name:              "test-gpu",
		Vendor:            "test",
		Type:              GPUDevice,
		ComputeUnits:      4,
		ClockMHz:          1000,
		GlobalMemSize:     1 << 20,
		MaxAllocSize:      1 << 19,
		GFLOPS:            100,
		MemBandwidth:      50e9,
		TransferBandwidth: 5e9,
		TransferLatency:   10 * time.Microsecond,
		KernelLaunch:      5 * time.Microsecond,
	})
}

func TestDeviceTypeString(t *testing.T) {
	if CPUDevice.String() != "CPU" || GPUDevice.String() != "GPU" {
		t.Fatalf("device type names wrong: %v %v", CPUDevice, GPUDevice)
	}
	if got := DeviceType(7).String(); !strings.Contains(got, "7") {
		t.Fatalf("unknown device type should embed the value, got %q", got)
	}
}

func TestSpecValidate(t *testing.T) {
	good := XeonX5660Spec(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("paper CPU spec should validate: %v", err)
	}
	cases := []func(*DeviceSpec){
		func(s *DeviceSpec) { s.Name = "" },
		func(s *DeviceSpec) { s.ComputeUnits = 0 },
		func(s *DeviceSpec) { s.GlobalMemSize = 0 },
		func(s *DeviceSpec) { s.MaxAllocSize = 0 },
		func(s *DeviceSpec) { s.MaxAllocSize = s.GlobalMemSize + 1 },
		func(s *DeviceSpec) { s.GFLOPS = 0 },
		func(s *DeviceSpec) { s.MemBandwidth = -1 },
		func(s *DeviceSpec) { s.TransferBandwidth = 0 },
	}
	for i, mutate := range cases {
		s := XeonX5660Spec(1)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec passed validation", i)
		}
	}
}

func TestNewDevicePanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDevice should panic on an invalid spec")
		}
	}()
	NewDevice(DeviceSpec{})
}

func TestPaperSpecs(t *testing.T) {
	cpu := XeonX5660Spec(1)
	if cpu.Type != CPUDevice || cpu.ComputeUnits != 12 {
		t.Errorf("X5660: want CPU with 12 compute units, got %v/%d", cpu.Type, cpu.ComputeUnits)
	}
	if cpu.GlobalMemSize != 96*gib {
		t.Errorf("X5660: want 96 GiB, got %d", cpu.GlobalMemSize)
	}
	gpu := TeslaM2050Spec(1)
	if gpu.Type != GPUDevice || gpu.GlobalMemSize != 3*gib {
		t.Errorf("M2050: want GPU with 3 GiB, got %v/%d", gpu.Type, gpu.GlobalMemSize)
	}
	// Scaling divides memory but leaves throughputs alone.
	scaled := TeslaM2050Spec(64)
	if scaled.GlobalMemSize != 3*gib/64 {
		t.Errorf("scaled M2050: want %d, got %d", 3*gib/64, scaled.GlobalMemSize)
	}
	if scaled.GFLOPS != gpu.GFLOPS || scaled.TransferBandwidth != gpu.TransferBandwidth {
		t.Error("memory scaling must not change throughput parameters")
	}
	// A nonsense scale clamps to 1.
	if TeslaM2050Spec(0).GlobalMemSize != 3*gib {
		t.Error("memScale < 1 should clamp to 1")
	}
}

func TestEdgeNodePlatforms(t *testing.T) {
	plats := EdgeNodePlatforms(64)
	if len(plats) != 2 {
		t.Fatalf("want 2 platforms (Intel, NVIDIA), got %d", len(plats))
	}
	if n := len(plats[0].Devices); n != 1 || plats[0].Devices[0].Type() != CPUDevice {
		t.Errorf("Intel platform: want 1 CPU device, got %d devices", n)
	}
	if n := len(plats[1].Devices); n != 2 || plats[1].Devices[0].Type() != GPUDevice {
		t.Errorf("NVIDIA platform: want 2 GPU devices, got %d devices", n)
	}
	if plats[1].Devices[0] == plats[1].Devices[1] {
		t.Error("the two GPUs must be independent devices")
	}
}

func TestBufferAllocationAccounting(t *testing.T) {
	ctx := NewContext(testDevice())
	b1, err := ctx.NewBuffer("a", 1024, 1) // 4 KiB
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Used() != 4096 || ctx.Peak() != 4096 || ctx.LiveBuffers() != 1 {
		t.Fatalf("after one alloc: used=%d peak=%d live=%d", ctx.Used(), ctx.Peak(), ctx.LiveBuffers())
	}
	b2, err := ctx.NewBuffer("b", 1024, 4) // 16 KiB (float4)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Bytes() != 16384 {
		t.Fatalf("float4 buffer of 1024 elems should be 16384 B, got %d", b2.Bytes())
	}
	if ctx.Used() != 20480 || ctx.Peak() != 20480 {
		t.Fatalf("after two allocs: used=%d peak=%d", ctx.Used(), ctx.Peak())
	}
	b1.Release()
	if ctx.Used() != 16384 {
		t.Fatalf("release must return memory: used=%d", ctx.Used())
	}
	if ctx.Peak() != 20480 {
		t.Fatalf("peak must be a high-water mark: peak=%d", ctx.Peak())
	}
	b1.Release() // double release is a no-op
	if ctx.Used() != 16384 || ctx.LiveBuffers() != 1 {
		t.Fatal("double release must not under-count")
	}
	ctx.ResetPeak()
	if ctx.Peak() != ctx.Used() {
		t.Fatal("ResetPeak should set peak to current usage")
	}
	if ctx.Allocations() != 2 {
		t.Fatalf("want 2 total allocations, got %d", ctx.Allocations())
	}
}

func TestBufferAllocationFailures(t *testing.T) {
	ctx := NewContext(testDevice()) // 1 MiB global, 512 KiB max alloc

	// A single buffer above MaxAllocSize fails with ErrAllocTooLarge.
	_, err := ctx.NewBuffer("huge", 1<<18, 1) // 1 MiB > 512 KiB max alloc
	if !errors.Is(err, ErrAllocTooLarge) {
		t.Fatalf("want ErrAllocTooLarge, got %v", err)
	}

	// Filling the device then allocating fails with ErrOutOfDeviceMemory.
	var live []*Buffer
	for i := 0; i < 2; i++ {
		b, err := ctx.NewBuffer("fill", 1<<17, 1) // 512 KiB each
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, b)
	}
	_, err = ctx.NewBuffer("one-more", 1024, 1)
	if !errors.Is(err, ErrOutOfDeviceMemory) {
		t.Fatalf("want ErrOutOfDeviceMemory, got %v", err)
	}
	var ae *AllocError
	if !errors.As(err, &ae) {
		t.Fatalf("want *AllocError, got %T", err)
	}
	if ae.InUse != 1<<20 || ae.Capacity != 1<<20 || ae.Buffer != "one-more" {
		t.Fatalf("alloc error details wrong: %+v", ae)
	}
	if msg := ae.Error(); !strings.Contains(msg, "one-more") || !strings.Contains(msg, "test-gpu") {
		t.Fatalf("alloc error message should name buffer and device: %q", msg)
	}

	// Releasing makes room again.
	live[0].Release()
	if _, err := ctx.NewBuffer("fits-now", 1024, 1); err != nil {
		t.Fatalf("allocation after release should succeed: %v", err)
	}

	// Invalid shapes are rejected.
	if _, err := ctx.NewBuffer("bad", -1, 1); err == nil {
		t.Error("negative elems must fail")
	}
	if _, err := ctx.NewBuffer("bad", 1, 0); err == nil {
		t.Error("zero width must fail")
	}
}

func TestQueueWriteReadRoundTrip(t *testing.T) {
	env := NewEnv(testDevice())
	src := make([]float32, 1000)
	for i := range src {
		src[i] = float32(i) * 0.5
	}
	buf, err := env.Upload("field", src, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := env.Download(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("round trip mismatch at %d: %v != %v", i, got[i], src[i])
		}
	}
	p := env.Profile()
	if p.Writes != 1 || p.Reads != 1 || p.Kernels != 0 {
		t.Fatalf("profile counts wrong: %+v", p)
	}
	if p.WriteBytes != 4000 || p.ReadBytes != 4000 {
		t.Fatalf("profile bytes wrong: %+v", p)
	}
	if p.WriteTime <= 0 || p.ReadTime <= 0 {
		t.Fatal("modeled transfer times must be positive")
	}
}

func TestQueueTransferValidation(t *testing.T) {
	env := NewEnv(testDevice())
	buf := env.Context().MustBuffer("b", 10, 1)
	if _, err := env.Upload("b", make([]float32, 11), 4); err == nil {
		t.Error("an upload of part of an element must fail")
	}
	if err := env.Queue().bind(buf, make([]float32, 11)); err == nil {
		t.Error("oversized write must fail")
	}
	if _, err := env.Queue().ReadBuffer(make([]float32, 11), buf); err == nil {
		t.Error("oversized read must fail")
	}
	buf.Release()
	if _, err := env.Queue().ReadBuffer(make([]float32, 1), buf); !errors.Is(err, ErrReleasedBuffer) {
		t.Errorf("read from released buffer: want ErrReleasedBuffer, got %v", err)
	}
}

// addKernel builds a c = a + b element-wise kernel for tests.
func addKernel() *Kernel {
	return &Kernel{
		Name:    "kadd",
		Source:  "__kernel void kadd(__global const float *a, __global const float *b, __global float *c) { int i = get_global_id(0); c[i] = a[i] + b[i]; }",
		NumBufs: 3,
		Cost:    Cost{Flops: 1, LoadBytes: 8, StoreBytes: 4},
		Passes: []KernelFunc{func(lo, hi int, bufs []View) {
			a, b, c := bufs[0].Data, bufs[1].Data, bufs[2].Data
			for i := lo; i < hi; i++ {
				c[i] = a[i] + b[i]
			}
		}},
	}
}

func TestKernelExecution(t *testing.T) {
	env := NewEnv(testDevice())
	const n = 50000
	a := make([]float32, n)
	b := make([]float32, n)
	for i := 0; i < n; i++ {
		a[i] = float32(i)
		b[i] = float32(2 * i)
	}
	ba, _ := env.Upload("a", a, 1)
	bb, _ := env.Upload("b", b, 1)
	bc := env.Context().MustBuffer("c", n, 1)
	if err := env.Run(addKernel(), n, []*Buffer{ba, bb, bc}); err != nil {
		t.Fatal(err)
	}
	got, _ := env.Download(bc)
	for i := 0; i < n; i++ {
		if got[i] != float32(3*i) {
			t.Fatalf("add kernel wrong at %d: got %v want %v", i, got[i], float32(3*i))
		}
	}
	p := env.Profile()
	if p.Kernels != 1 {
		t.Fatalf("want 1 kernel event, got %d", p.Kernels)
	}
	if p.KernelTime <= 0 {
		t.Fatal("modeled kernel time must be positive")
	}
}

func TestKernelLaunchValidation(t *testing.T) {
	env := NewEnv(testDevice())
	k := addKernel()
	b := env.Context().MustBuffer("x", 8, 1)

	if err := env.Run(k, 8, []*Buffer{b}); err == nil {
		t.Error("wrong buffer count must fail")
	}
	if err := env.Run(k, -1, []*Buffer{b, b, b}); err == nil {
		t.Error("negative global size must fail")
	}
	if err := env.Run(k, 8, []*Buffer{b, nil, b}); err == nil {
		t.Error("nil buffer must fail")
	}
	rb := env.Context().MustBuffer("y", 8, 1)
	rb.Release()
	if err := env.Run(k, 8, []*Buffer{b, rb, b}); err == nil {
		t.Error("released buffer must fail")
	}
	var ae *ArgError
	err := env.Run(&Kernel{Name: "nofn"}, 8, nil)
	if !errors.As(err, &ae) {
		t.Fatalf("kernel without body: want *ArgError, got %v", err)
	}
	if !strings.Contains(ae.Error(), "nofn") {
		t.Errorf("ArgError should name the kernel: %q", ae.Error())
	}
}

func TestKernelZeroGlobalSize(t *testing.T) {
	env := NewEnv(testDevice())
	b := env.Context().MustBuffer("x", 8, 1)
	if err := env.Run(addKernel(), 0, []*Buffer{b, b, b}); err != nil {
		t.Fatalf("zero-size launch should succeed as a no-op: %v", err)
	}
	if env.Profile().Kernels != 1 {
		t.Fatal("zero-size launch still records a kernel event")
	}
}

func TestSimulatedTimelineIsInOrder(t *testing.T) {
	env := NewEnv(testDevice())
	b, _ := env.Upload("x", make([]float32, 1024), 1)
	env.Run(addKernel(), 1024, []*Buffer{b, b, b})
	env.Queue().ReadBuffer(make([]float32, 1024), b)

	evs := env.Queue().Events()
	if len(evs) != 3 {
		t.Fatalf("want 3 events, got %d", len(evs))
	}
	var prevEnd time.Duration
	for i, e := range evs {
		if e.Start != prevEnd {
			t.Errorf("event %d: in-order queue must start when the previous ends (start=%v prevEnd=%v)", i, e.Start, prevEnd)
		}
		if e.End <= e.Start {
			t.Errorf("event %d: modeled duration must be positive", i)
		}
		prevEnd = e.End
	}
	if env.Queue().Now() != prevEnd {
		t.Error("queue Now() must equal the last event's end")
	}
	kinds := []EventKind{WriteEvent, KernelEvent, ReadEvent}
	for i, e := range evs {
		if e.Kind != kinds[i] {
			t.Errorf("event %d kind: got %v want %v", i, e.Kind, kinds[i])
		}
	}
}

// TestEventLogOffFoldsProfileOnly: with the log off the same three
// operations fold into an identical profile and timeline, and none is
// kept; turning it back on logs again.
func TestEventLogOffFoldsProfileOnly(t *testing.T) {
	run := func(log bool) (Profile, time.Duration, []Event) {
		env := NewEnv(testDevice())
		env.Queue().SetEventLog(log)
		b, _ := env.Upload("x", make([]float32, 1024), 1)
		env.Run(addKernel(), 1024, []*Buffer{b, b, b})
		env.Queue().ReadBuffer(make([]float32, 1024), b)
		return env.Profile(), env.Queue().Now(), env.Queue().Events()
	}
	onProf, onNow, onEvs := run(true)
	offProf, offNow, offEvs := run(false)
	if len(onEvs) != 3 || offEvs != nil {
		t.Fatalf("logged %d events with the log on and %d with it off, want 3 and none", len(onEvs), len(offEvs))
	}
	onProf.Wall, offProf.Wall = 0, 0 // real host time differs run to run
	if onProf != offProf || onNow != offNow {
		t.Fatalf("log off changed the profile or timeline: %+v at %v, want %+v at %v", offProf, offNow, onProf, onNow)
	}
}

// TestWarmLaunchAllocatesNothing: a launch that fits one chunk binds its
// buffers into the queue's argument scratch and calls the kernel on the
// launching goroutine, so once the scratch and the event log have grown
// it allocates nothing — and the scratch holds no buffer past it.
func TestWarmLaunchAllocatesNothing(t *testing.T) {
	env := NewEnv(testDevice())
	b := env.Context().MustBuffer("x", 64, 1)
	bufs := []*Buffer{b, b, b}
	k := addKernel()
	launch := func() {
		env.Reset()
		if err := env.Run(k, 64, bufs); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, launch); allocs != 0 {
		t.Fatalf("warm launch makes %.0f allocations, want 0", allocs)
	}
	for i, v := range env.Queue().views[:len(bufs)] {
		if v.Data != nil {
			t.Fatalf("argument scratch slot %d still holds a buffer's storage after the launch", i)
		}
	}
}

func TestCostModelOrdering(t *testing.T) {
	// Given identical work, the modeled GPU kernel is clearly faster
	// than the CPU kernel, while per-byte transfer costs are comparable
	// (pinned PCIe gen2 vs in-host copies) — the regime in which the
	// paper's GPU is "faster or on-par" for every case it completes.
	cpu := NewDevice(XeonX5660Spec(64))
	gpu := NewDevice(TeslaM2050Spec(64))
	cost := Cost{Flops: 20, LoadBytes: 16, StoreBytes: 4}
	n := 10_000_000
	gt, ct := gpu.kernelTime(n, cost), cpu.kernelTime(n, cost)
	if gt >= ct {
		t.Errorf("GPU kernel should be modeled faster: gpu=%v cpu=%v", gt, ct)
	}
	bytes := int64(400 << 20)
	gtr, ctr := gpu.transferTime(bytes), cpu.transferTime(bytes)
	ratio := float64(gtr) / float64(ctr)
	if ratio < 0.5 || ratio > 1.0 {
		t.Errorf("transfer costs should be comparable with the GPU never slower: gpu=%v cpu=%v", gtr, ctr)
	}
}

func TestCostModelScalesWithWork(t *testing.T) {
	dev := testDevice()
	cost := Cost{Flops: 10, LoadBytes: 12, StoreBytes: 4}
	small := dev.kernelTime(1000, cost)
	big := dev.kernelTime(1_000_000, cost)
	if big <= small {
		t.Errorf("kernel time must grow with global size: %v vs %v", small, big)
	}
	if dev.transferTime(1<<26) <= dev.transferTime(1<<10) {
		t.Error("transfer time must grow with bytes")
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{Flops: 1, LoadBytes: 2, StoreBytes: 3}
	b := Cost{Flops: 10, LoadBytes: 20, StoreBytes: 30}
	got := a.Add(b)
	if got != (Cost{Flops: 11, LoadBytes: 22, StoreBytes: 33}) {
		t.Fatalf("Cost.Add wrong: %+v", got)
	}
}

func TestProfileAddAndString(t *testing.T) {
	env := NewEnv(testDevice())
	b, _ := env.Upload("x", make([]float32, 64), 1)
	env.Run(addKernel(), 64, []*Buffer{b, b, b})
	p := env.Profile()

	sum := p.Add(p)
	if sum.Writes != 2*p.Writes || sum.Kernels != 2*p.Kernels || sum.WriteBytes != 2*p.WriteBytes {
		t.Fatalf("Profile.Add wrong: %+v", sum)
	}
	if sum.DeviceTime() != 2*p.DeviceTime() {
		t.Fatal("Profile.Add must sum modeled times")
	}
	if p.Events() != 2 {
		t.Fatalf("want 2 events, got %d", p.Events())
	}
	s := p.String()
	for _, want := range []string{"Dev-W=1", "Dev-R=0", "K-Exe=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("Profile.String() missing %q: %s", want, s)
		}
	}
}

func TestQueueReset(t *testing.T) {
	env := NewEnv(testDevice())
	env.Upload("x", make([]float32, 64), 1)
	env.Reset()
	if p := env.Profile(); p.Events() != 0 {
		t.Fatalf("reset queue should have no events: %+v", p)
	}
	if env.Queue().Now() != 0 {
		t.Fatal("reset queue timeline should be zero")
	}
	if env.PeakBytes() != env.Context().Used() {
		t.Fatal("Env.Reset should reset the high-water mark to current usage")
	}
}

func TestEnvUploadFailureRecordsNoEvent(t *testing.T) {
	env := NewEnv(testDevice())
	_, err := env.Upload("too-big", make([]float32, 1<<18), 1)
	if !errors.Is(err, ErrAllocTooLarge) {
		t.Fatalf("want ErrAllocTooLarge, got %v", err)
	}
	if env.Profile().Events() != 0 {
		t.Fatal("failed upload must not record events")
	}
}

// TestExecuteCoversRangeExactlyOnce drives the worker-pool splitter with
// random sizes and checks every index is visited exactly once.
func TestExecuteCoversRangeExactlyOnce(t *testing.T) {
	dev := testDevice()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200_000)
		marks := make([]int32, n)
		dev.execute(n, func(lo, hi int, _ []View) {
			for i := lo; i < hi; i++ {
				marks[i]++
			}
		}, nil)
		for _, m := range marks {
			if m != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelChunkPanicReachesLauncher: a kernel body that panics in a
// fanned-out launch chunk must unwind the launching goroutine — where
// the strategies' deferred releases and serve's panic shield are — not
// the chunk's own goroutine, where it would end the process. The first
// panic is re-raised after every chunk has returned, carrying the
// original value and the chunk's stack.
func TestKernelChunkPanicReachesLauncher(t *testing.T) {
	dev := testDevice()
	dev.workers = 4 // fan out whatever the host's GOMAXPROCS
	env := NewEnv(dev)
	ctx := env.Context()
	base := ctx.LiveBuffers()
	const n = 2 * minParallelGrain

	var ran sync.Map // chunk lo -> true
	boom := &Kernel{Name: "kboom", NumBufs: 1, Passes: []KernelFunc{func(lo, hi int, bufs []View) {
		ran.Store(lo, true)
		if lo > 0 {
			panic(fmt.Sprintf("boom at %d", lo))
		}
		for i := lo; i < hi; i++ {
			bufs[0].Data[i] = 1
		}
	}}}
	launch := func() (recovered any) {
		buf, err := env.NewBuffer("x", n, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer buf.Release()
		defer func() { recovered = recover() }()
		err = env.Run(boom, n, []*Buffer{buf})
		t.Errorf("Run returned (%v) past a panicking chunk", err)
		return nil
	}
	r := launch()
	cp, ok := r.(*chunkPanic)
	if !ok {
		t.Fatalf("recovered %#v, want the chunk's panic re-raised on the launcher", r)
	}
	if v, _ := cp.value.(string); !strings.HasPrefix(v, "boom at ") {
		t.Fatalf("re-raised value %#v, want the kernel's own", cp.value)
	}
	if !strings.Contains(string(cp.stack), "TestKernelChunkPanicReachesLauncher") ||
		!strings.Contains(cp.Error(), "boom at ") {
		t.Fatalf("re-raised panic lost the chunk's stack or value:\n%s", cp.Error())
	}
	chunks := 0
	ran.Range(func(_, _ any) bool { chunks++; return true })
	if chunks < 2 {
		t.Fatalf("%d chunks ran, want the launch fanned out and every chunk waited for", chunks)
	}
	if live := ctx.LiveBuffers(); live != base {
		t.Fatalf("%d live buffers after the panicking launch, want %d", live, base)
	}

	// The device is still usable.
	buf := ctx.MustBuffer("y", n, 1)
	defer buf.Release()
	fill := &Kernel{Name: "kfill", NumBufs: 1, Passes: []KernelFunc{func(lo, hi int, bufs []View) {
		for i := lo; i < hi; i++ {
			bufs[0].Data[i] = 2
		}
	}}}
	if err := env.Run(fill, n, []*Buffer{buf}); err != nil {
		t.Fatal(err)
	}
}

// TestFannedOutLaunchAllocatesNothing: a launch split into chunks hands
// them to the package's chunk workers through a pooled launch, so once
// the workers run it allocates nothing, and every chunk runs exactly
// once whichever goroutine takes it.
func TestFannedOutLaunchAllocatesNothing(t *testing.T) {
	dev := testDevice()
	dev.SetChunking(4, 1)
	const n = 4099 // four uneven chunks
	data := make([]float32, n)
	views := []View{{Data: data, Elems: n, Width: 1}}
	pass := func(lo, hi int, bufs []View) {
		for i := lo; i < hi; i++ {
			bufs[0].Data[i]++
		}
	}
	dev.execute(n, pass, views) // starts the workers
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, func() { dev.execute(n, pass, views) }); allocs != 0 {
		t.Errorf("a fanned-out launch makes %.0f allocations, want 0", allocs)
	}
	for i, v := range data {
		if v != runs+2 { // the start-up launch, AllocsPerRun's warm-up and the runs
			t.Fatalf("element %d was written %v times, want %d", i, v, runs+2)
		}
	}
}

// TestConcurrentFannedOutLaunches: launches from several goroutines at
// once share the chunk workers; each chunk runs once, on a worker or on
// its own launcher, and every launch waits for all of its own.
func TestConcurrentFannedOutLaunches(t *testing.T) {
	const launchers, runs, n = 4, 50, 3001
	var wg sync.WaitGroup
	for g := 0; g < launchers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := testDevice()
			dev.SetChunking(3, 1)
			data := make([]float32, n)
			views := []View{{Data: data, Elems: n, Width: 1}}
			pass := func(lo, hi int, bufs []View) {
				for i := lo; i < hi; i++ {
					bufs[0].Data[i]++
				}
			}
			for r := 0; r < runs; r++ {
				dev.execute(n, pass, views)
			}
			for i, v := range data {
				if v != runs {
					t.Errorf("element %d was written %v times, want %d", i, v, runs)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAllocReleaseConservation is a property test: any interleaving of
// allocations and releases conserves the context's byte accounting.
func TestAllocReleaseConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		dev := NewDevice(XeonX5660Spec(1))
		ctx := NewContext(dev)
		var live []*Buffer
		var want int64
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op) % len(live)
				want -= live[i].Bytes()
				live[i].Release()
				live = append(live[:i], live[i+1:]...)
			} else {
				elems := int(op%1024) + 1
				b, err := ctx.NewBuffer("p", elems, 1)
				if err != nil {
					return false
				}
				want += b.Bytes()
				live = append(live, b)
			}
			if ctx.Used() != want {
				return false
			}
			if ctx.Peak() < ctx.Used() {
				return false
			}
		}
		for _, b := range live {
			b.Release()
		}
		return ctx.Used() == 0 && ctx.LiveBuffers() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelWallTimeRecorded(t *testing.T) {
	env := NewEnv(testDevice())
	const n = 1 << 16
	b := env.Context().MustBuffer("x", n, 1)
	env.Run(addKernel(), n, []*Buffer{b, b, b})
	evs := env.Queue().Events()
	if evs[0].Wall < 0 {
		t.Fatal("wall time must be non-negative")
	}
	if evs[0].GlobalSize != n {
		t.Fatalf("kernel event should record global size: got %d", evs[0].GlobalSize)
	}
}

func TestEventKindString(t *testing.T) {
	if WriteEvent.String() != "Dev-W" || ReadEvent.String() != "Dev-R" || KernelEvent.String() != "K-Exe" {
		t.Fatal("event kind names must match the paper's Table II headers")
	}
	if got := EventKind(9).String(); !strings.Contains(got, "9") {
		t.Fatalf("unknown event kind should embed the value, got %q", got)
	}
}

func TestMultiPassKernel(t *testing.T) {
	// A two-pass kernel: pass 1 fills a scratch buffer, pass 2 consumes
	// values written by OTHER work items (a barrier-dependent pattern).
	// Both passes run inside one kernel dispatch -> one KernelEvent.
	env := NewEnv(testDevice())
	const n = 10000
	in := make([]float32, n)
	for i := range in {
		in[i] = float32(i)
	}
	bin, _ := env.Upload("in", in, 1)
	scratch := env.Context().MustBuffer("scratch", n, 1)
	out := env.Context().MustBuffer("out", n, 1)
	k := &Kernel{
		Name: "ktwopass",
		Cost: Cost{Flops: 2, LoadBytes: 8, StoreBytes: 8},
		Passes: []KernelFunc{
			func(lo, hi int, bufs []View) {
				a, s := bufs[0].Data, bufs[1].Data
				for i := lo; i < hi; i++ {
					s[i] = 2 * a[i]
				}
			},
			func(lo, hi int, bufs []View) {
				s, o := bufs[1].Data, bufs[2].Data
				for i := lo; i < hi; i++ {
					// Reads a neighbour's pass-1 result: requires the
					// inter-pass barrier the queue provides.
					j := (i + 1) % n
					o[i] = s[i] + s[j]
				}
			},
		},
	}
	if err := env.Run(k, n, []*Buffer{bin, scratch, out}); err != nil {
		t.Fatal(err)
	}
	got, _ := env.Download(out)
	for i := 0; i < n; i++ {
		want := float32(2*i + 2*((i+1)%n))
		if got[i] != want {
			t.Fatalf("two-pass kernel wrong at %d: got %v want %v", i, got[i], want)
		}
	}
	if p := env.Profile(); p.Kernels != 1 {
		t.Fatalf("multi-pass kernel must record exactly one kernel event, got %d", p.Kernels)
	}
}

// TestConcurrentEnvsAreIndependent runs several environments (one per
// simulated device, as the distributed evaluation does) concurrently and
// checks accounting never bleeds across them.
func TestConcurrentEnvsAreIndependent(t *testing.T) {
	const workers = 8
	const rounds = 20
	errs := make(chan error, workers)
	for wi := 0; wi < workers; wi++ {
		go func(wi int) {
			env := NewEnv(NewDevice(TeslaM2050Spec(64)))
			k := addKernel()
			for r := 0; r < rounds; r++ {
				n := 1000 + 100*wi
				a := make([]float32, n)
				for i := range a {
					a[i] = float32(wi)
				}
				ba, err := env.Upload("a", a, 1)
				if err != nil {
					errs <- err
					return
				}
				out := env.Context().MustBuffer("out", n, 1)
				if err := env.Run(k, n, []*Buffer{ba, ba, out}); err != nil {
					errs <- err
					return
				}
				got, err := env.Download(out)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if got[i] != float32(2*wi) {
						errs <- fmt.Errorf("worker %d round %d: cross-talk value %v", wi, r, got[i])
						return
					}
				}
				ba.Release()
				out.Release()
			}
			p := env.Profile()
			if p.Writes != rounds || p.Kernels != rounds || p.Reads != rounds {
				errs <- fmt.Errorf("worker %d: profile %+v", wi, p)
				return
			}
			if env.Context().LiveBuffers() != 0 {
				errs <- fmt.Errorf("worker %d: leaked buffers", wi)
				return
			}
			errs <- nil
		}(wi)
	}
	for wi := 0; wi < workers; wi++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestInjectAllocFailure(t *testing.T) {
	ctx := NewContext(testDevice())
	ctx.SetFaultPlan(NewFaultPlan(0).Add(FaultRule{Op: FaultAlloc, Nth: 2}))
	if _, err := ctx.NewBuffer("a", 8, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.NewBuffer("b", 8, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.NewBuffer("c", 8, 1); !errors.Is(err, ErrOutOfDeviceMemory) {
		t.Fatalf("third allocation must fail with the injected fault, got %v", err)
	}
	// The fault is one-shot.
	if _, err := ctx.NewBuffer("d", 8, 1); err != nil {
		t.Fatalf("fault must disarm after firing: %v", err)
	}
	if ctx.Allocations() != 3 {
		t.Fatalf("injected failure must not count as an allocation: %d", ctx.Allocations())
	}
}

func TestAccessors(t *testing.T) {
	dev := testDevice()
	if dev.Name() != "test-gpu" || dev.Type() != GPUDevice || dev.GlobalMemSize() != 1<<20 {
		t.Fatal("device accessors wrong")
	}
	if dev.Spec().ComputeUnits != 4 {
		t.Fatal("spec accessor wrong")
	}
	env := NewEnv(dev)
	if env.Device() != dev || env.Context().Device() != dev || env.Queue().Context() != env.Context() {
		t.Fatal("env accessors wrong")
	}
	b, err := env.NewBuffer("x", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Label() != "x" || len(b.Data()) != 4 {
		t.Fatal("buffer accessors wrong")
	}
}

func TestMustBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuffer must panic when allocation fails")
		}
	}()
	ctx := NewContext(testDevice())
	ctx.MustBuffer("too-big", 1<<22, 1)
}

func TestEnvDownloadOfReleasedBufferFails(t *testing.T) {
	env := NewEnv(testDevice())
	b := env.Context().MustBuffer("x", 4, 1)
	b.Release()
	if _, err := env.Download(b); err == nil {
		t.Fatal("download of released buffer must fail")
	}
	if _, err := env.Upload("y", make([]float32, 4), 0); err != nil {
		t.Fatal("width < 1 should clamp to 1:", err)
	}
}

// TestAccumulatorConcurrentAdds: profiles folded in from many goroutines
// sum exactly, and the peak keeps the maximum.
func TestAccumulatorConcurrentAdds(t *testing.T) {
	var acc Accumulator
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				acc.Add(Profile{Writes: 1, Kernels: 2, WriteBytes: 16}, int64(w*1000+i))
			}
		}()
	}
	wg.Wait()
	p, runs, peak := acc.Snapshot()
	if runs != workers*each {
		t.Fatalf("runs = %d, want %d", runs, workers*each)
	}
	if p.Writes != workers*each || p.Kernels != 2*workers*each || p.WriteBytes != 16*int64(workers*each) {
		t.Fatalf("aggregate profile off: %+v", p)
	}
	if peak != int64((workers-1)*1000+each-1) {
		t.Fatalf("peak = %d", peak)
	}
}

// TestUploadResidentStable: a source declared stable is recognized by
// its backing array, so binding it again is a skip; anything that is not
// that very array at that very shape is an upload, equal contents or
// not, and so is every bind of a source not declared stable.
func TestUploadResidentStable(t *testing.T) {
	ctx := NewContext(NewDevice(XeonX5660Spec(1)))
	a, q := ctx.Pool(), NewQueue(ctx)
	coords := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	upload := func(what string, src []float32, stable, wantSkip bool) *Buffer {
		t.Helper()
		before := a.Stats().UploadsSkipped
		b, err := a.UploadResident(q, "x", "x", src, 1, stable)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got := make([]float32, len(src))
		if _, err := q.ReadBuffer(got, b); err != nil {
			t.Fatal(err)
		}
		if skipped := a.Stats().UploadsSkipped > before; skipped != wantSkip {
			t.Fatalf("%s: skipped = %v, want %v", what, skipped, wantSkip)
		}
		if !slices.Equal(got, src) {
			t.Fatalf("%s: device holds %v after binding %v", what, got, src)
		}
		b.Release()
		return b
	}
	first := upload("first stable bind", coords, true, false)
	upload("same array again", coords, true, true)

	// Rewriting a stable array breaks the caller's promise; the skip
	// never looks at the contents (the slot aliases the array, so the
	// device reads what the array holds now).
	coords[4] = -5
	upload("same array, contents not examined", coords, true, true)
	// Without the promise every bind is an upload, changed or not.
	upload("mutated array, not declared stable", coords, false, false)
	upload("unchanged array, not declared stable", coords, false, false)
	// The undeclared bind cleared the slot's record of the array ...
	coords[4] = 5
	upload("stable again after an undeclared bind", coords, true, false)
	upload("and recognized from then on", coords, true, true)

	// A different backing array is an upload, equal contents or not;
	// either way the slot now remembers the new array.
	twin := slices.Clone(coords)
	upload("equal contents in another array", twin, true, false)
	upload("the other array again", twin, true, true)
	other := slices.Clone(coords)
	other[0] = 100
	upload("a second mesh of the same shape", other, true, false)
	upload("the second mesh again", other, true, true)
	upload("back to the first", coords, true, false)

	// A shorter window of the same array is a different shape.
	if b := upload("same array, shorter", coords[:8], true, false); b == first {
		t.Fatal("a reshaped slot kept its old buffer")
	}
	upload("the shorter window again", coords[:8], true, true)
	// An empty source has no array to recognize.
	upload("empty", nil, true, false)
	upload("empty again", nil, true, false)

	if st := a.Stats(); st.Uploads != 10 || st.UploadsSkipped != 6 {
		t.Fatalf("uploads %d, skips %d; want 10 and 6", st.Uploads, st.UploadsSkipped)
	}
}

// TestUploadResidentStableShared: environments sharing one arena bind
// concurrently (run under -race) — one slot they all recognize by its
// array, and a slot each that alternates between two meshes.
func TestUploadResidentStableShared(t *testing.T) {
	ctx := NewContext(NewDevice(XeonX5660Spec(1)))
	a := ctx.Pool()
	dims := []float32{8, 8, 8, 0}
	meshes := [][]float32{make([]float32, 512), make([]float32, 512)}
	for i := range meshes[1] {
		meshes[1][i] = float32(i)
	}
	if _, err := a.UploadResident(NewQueue(ctx), "dims", "dims", dims, 1, true); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q, key := NewQueue(ctx), fmt.Sprint("x", w)
			for i := 0; i < 200; i++ {
				d, err := a.UploadResident(q, "dims", "dims", dims, 1, true)
				if err != nil {
					t.Errorf("dims: %v", err)
					return
				}
				b, err := a.UploadResident(q, key, "x", meshes[(i/7)%2], 1, i%5 != 0)
				if err != nil {
					t.Error(err)
					return
				}
				d.Release()
				b.Release()
			}
		}(w)
	}
	wg.Wait()
	if st := a.Stats(); st.Uploads != 1+4*97 {
		t.Fatalf("%d uploads, want one for dims and 97 per worker: 40 binds not declared stable, and 57 stable ones after a mesh change or an undeclared bind", st.Uploads)
	}
	a.Drain()
	if live := ctx.LiveBuffers(); live != 0 {
		t.Fatalf("%d buffers live after Drain", live)
	}
}
