package ocl

import (
	"errors"
	"strings"
	"testing"
)

func faultEnv(t *testing.T) (*Context, *Queue) {
	t.Helper()
	ctx := NewContext(NewDevice(XeonX5660Spec(4)))
	return ctx, NewQueue(ctx)
}

func TestFaultPlanFailNthAlloc(t *testing.T) {
	ctx, _ := faultEnv(t)
	ctx.SetFaultPlan(NewFaultPlan(1).Add(FaultRule{Op: FaultAlloc, Nth: 2}))

	for i := 0; i < 2; i++ {
		b, err := ctx.NewBuffer("ok", 8, 1)
		if err != nil {
			t.Fatalf("alloc %d: unexpected error %v", i, err)
		}
		defer b.Release()
	}
	_, err := ctx.NewBuffer("boom", 8, 1)
	if !errors.Is(err, ErrOutOfDeviceMemory) {
		t.Fatalf("third alloc: got %v, want ErrOutOfDeviceMemory", err)
	}
	var ae *AllocError
	if !errors.As(err, &ae) {
		t.Fatalf("injected alloc fault should be an *AllocError, got %T", err)
	}
	// One-shot: the schedule is spent.
	b, err := ctx.NewBuffer("after", 8, 1)
	if err != nil {
		t.Fatalf("alloc after one-shot fault: %v", err)
	}
	b.Release()
}

func TestFaultPlanTransferAndKernel(t *testing.T) {
	ctx, q := faultEnv(t)
	ctx.SetFaultPlan(NewFaultPlan(1).
		Add(FaultRule{Op: FaultWrite, Nth: 0}).
		Add(FaultRule{Op: FaultRead, Nth: 0}).
		Add(FaultRule{Op: FaultKernel, Nth: 0}))

	b := ctx.MustBuffer("buf", 4, 1)
	defer b.Release()
	src := make([]float32, 4)

	err := q.bind(b, src)
	if !errors.Is(err, ErrTransferFailed) {
		t.Fatalf("write: got %v, want ErrTransferFailed", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Op != FaultWrite {
		t.Fatalf("write fault: got %#v, want *FaultError{Op: FaultWrite}", err)
	}
	if Classify(err) != ClassTransient {
		t.Fatalf("write fault classified %v, want transient", Classify(err))
	}
	if err := q.bind(b, src); err != nil {
		t.Fatalf("second write should pass: %v", err)
	}

	if _, err := q.ReadBuffer(src, b); !errors.Is(err, ErrTransferFailed) {
		t.Fatalf("read: got %v, want ErrTransferFailed", err)
	}

	k := &Kernel{Name: "nop", NumBufs: 1, Passes: []KernelFunc{func(lo, hi int, bufs []View) {}}}
	if _, err := q.Run(k, 4, []*Buffer{b}); !errors.Is(err, ErrKernelFailed) {
		t.Fatalf("kernel: got %v, want ErrKernelFailed", err)
	}
	if _, err := q.Run(k, 4, []*Buffer{b}); err != nil {
		t.Fatalf("second kernel should pass: %v", err)
	}
}

func TestFaultPlanDeviceLostLatch(t *testing.T) {
	ctx, q := faultEnv(t)
	ctx.SetFaultPlan(NewFaultPlan(1).Add(FaultRule{Op: FaultAny, Nth: 1, Effect: EffectDeviceLost}))

	b := ctx.MustBuffer("buf", 4, 1) // op 0: alloc passes
	src := make([]float32, 4)
	err := q.bind(b, src) // op 1: trips the latch
	if !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("write at loss point: got %v, want ErrDeviceLost", err)
	}
	if !ctx.Lost() {
		t.Fatal("context should be latched lost")
	}
	if Classify(err) != ClassDeviceLost {
		t.Fatalf("classified %v, want device-lost", Classify(err))
	}
	// Everything fails while lost, including allocations...
	if _, err := ctx.NewBuffer("x", 4, 1); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("alloc on lost device: got %v, want ErrDeviceLost", err)
	}
	if _, err := q.ReadBuffer(src, b); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("read on lost device: got %v, want ErrDeviceLost", err)
	}
	// ...except cleanup: Release still works and fixes accounting.
	b.Release()
	if ctx.LiveBuffers() != 0 || ctx.Used() != 0 {
		t.Fatalf("release on lost device must still free: live=%d used=%d", ctx.LiveBuffers(), ctx.Used())
	}
	// Heal clears the latch.
	ctx.Heal()
	if b2, err := ctx.NewBuffer("y", 4, 1); err != nil {
		t.Fatalf("alloc after heal: %v", err)
	} else {
		b2.Release()
	}
}

func TestFaultPlanPanicEffect(t *testing.T) {
	ctx, q := faultEnv(t)
	ctx.SetFaultPlan(NewFaultPlan(1).Add(FaultRule{Op: FaultKernel, Nth: 0, Effect: EffectPanic}))
	b := ctx.MustBuffer("buf", 4, 1)
	defer b.Release()
	k := &Kernel{Name: "nop", NumBufs: 1, Passes: []KernelFunc{func(lo, hi int, bufs []View) {}}}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected injected panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "injected panic") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	q.Run(k, 4, []*Buffer{b})
}

func TestFaultPlanProbabilisticDeterministicReplay(t *testing.T) {
	// Same seed + same operation sequence => identical fault schedule.
	run := func(seed int64) []bool {
		ctx, _ := faultEnv(t)
		ctx.SetFaultPlan(NewFaultPlan(seed).FailEvery(FaultAlloc, 0.3))
		var hits []bool
		for i := 0; i < 64; i++ {
			b, err := ctx.NewBuffer("p", 2, 1)
			hits = append(hits, err != nil)
			if err == nil {
				b.Release()
			}
		}
		return hits
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d with equal seeds", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-op schedules (suspicious)")
	}
	var fired bool
	for _, h := range a {
		fired = fired || h
	}
	if !fired {
		t.Fatal("p=0.3 over 64 ops fired nothing")
	}
}

func TestFaultPlanTimesBudget(t *testing.T) {
	ctx, _ := faultEnv(t)
	// Deterministic rule with a budget of 3: fails attempts 1,2,3 then
	// stays quiet.
	ctx.SetFaultPlan(NewFaultPlan(1).Add(FaultRule{Op: FaultAlloc, Nth: 1, Times: 3}))
	var fails int
	for i := 0; i < 8; i++ {
		b, err := ctx.NewBuffer("t", 2, 1)
		if err != nil {
			fails++
			if i < 1 || i > 3 {
				t.Fatalf("fault fired at attempt %d, want window [1,3]", i)
			}
			continue
		}
		b.Release()
	}
	if fails != 3 {
		t.Fatalf("got %d injected failures, want 3", fails)
	}
}

func TestClassifyPermanent(t *testing.T) {
	if got := Classify(errors.New("parse error")); got != ClassPermanent {
		t.Fatalf("arbitrary error classified %v, want permanent", got)
	}
	if got := Classify(nil); got != ClassNone {
		t.Fatalf("nil classified %v, want none", got)
	}
	if got := Classify(&AllocError{Err: ErrAllocTooLarge}); got != ClassCapacity {
		t.Fatalf("alloc-too-large classified %v, want capacity", got)
	}
}
