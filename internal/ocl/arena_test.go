package ocl

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// FuzzUploadResident drives a random sequence of UploadResident calls on
// one slot. Each input byte is one step — an edit of the source, then a
// bind: action b%8, argument b/8.
//
//	0  a new array: width 1, 2 or 4, b/8 elements of fresh values
//	1  flip bit b/8 of the first word
//	2  flip bit b/8 of the middle word
//	3  flip bit b/8 of the last word
//	4  set the first, middle or last word to +0 or -0
//	5  set the first, middle or last word to a NaN payload
//	6  the same bits in a new array
//	7  toggle whether binds declare the array stable
//
// An array once declared stable is never edited in place; an edit clones
// it first, keeping the caller's promise. Every bind must hand out a
// buffer that reads back the source's bits, and must be a skip exactly
// when it binds, declared stable, the very array the slot's last bind
// declared stable, at that shape; every other bind is an upload. Once
// the hand-out is released, a slot whose last bind was not declared
// stable holds no array.
func FuzzUploadResident(f *testing.F) {
	f.Add([]byte{0 | 8<<3, 1, 1 | 31<<3, 2 | 7<<3, 3, 7, 6, 6, 7, 4, 4 | 3<<3, 5, 5 | 9<<3})
	f.Add([]byte{0 | 5<<3, 7, 3 | 31<<3, 3 | 31<<3, 0 | 6<<3, 0 | 7<<3, 0, 0, 7, 1})
	f.Add([]byte{7, 0 | 12<<3, 6, 4 | 4<<3, 4 | 1<<3, 5 | 2<<3, 5 | 18<<3, 6, 7, 6, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ctx := NewContext(NewDevice(XeonX5660Spec(1)))
		a, q := ctx.Pool(), NewQueue(ctx)
		src, width := []float32{1, 2, 3}, 1
		declared, stable := false, false
		var held *float32 // the stable array the slot holds, nil for none
		heldWidth, heldLen, uploads := 0, 0, int64(0)
		bits := func(v []float32) []uint32 {
			w := make([]uint32, len(v))
			for i, x := range v {
				w[i] = math.Float32bits(x)
			}
			return w
		}
		edit := func(pos int, f func(uint32) uint32) {
			if len(src) == 0 {
				return
			}
			if declared {
				src, declared = slices.Clone(src), false
			}
			i := [3]int{0, len(src) / 2, len(src) - 1}[pos]
			src[i] = math.Float32frombits(f(math.Float32bits(src[i])))
		}
		for step, op := range ops {
			arg := int(op >> 3)
			switch op & 7 {
			case 0:
				width = [3]int{1, 2, 4}[arg%3]
				src, declared = make([]float32, arg*width), false
				for i := range src {
					src[i] = float32(step*131 + i)
				}
			case 1, 2, 3:
				edit(int(op&7)-1, func(w uint32) uint32 { return w ^ 1<<arg })
			case 4:
				edit(arg%3, func(uint32) uint32 { return uint32(arg/3%2) << 31 })
			case 5:
				edit(arg%3, func(uint32) uint32 { return 0x7f800001 | uint32(arg)<<17 | uint32(arg%2)<<31 })
			case 6:
				src, declared = slices.Clone(src), false
			case 7:
				stable = !stable
			}
			declared = declared || stable

			var base *float32
			if stable && len(src) > 0 {
				base = &src[0]
			}
			wantSkip := base != nil && base == held && heldWidth == width && heldLen == len(src)
			before := a.Stats()
			b, err := a.UploadResident(q, "u", "u", src, width, stable)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			after := a.Stats()
			skipped, uploaded := after.UploadsSkipped > before.UploadsSkipped, after.Uploads > before.Uploads
			if skipped != wantSkip || uploaded == wantSkip {
				t.Fatalf("step %d (op %d, stable %v): skipped = %v, uploaded = %v, want a skip: %v", step, op&7, stable, skipped, uploaded, wantSkip)
			}
			if len(src) > 0 && &b.data[0] != &src[0] {
				t.Fatalf("step %d: the slot copied its source instead of binding it", step)
			}
			got := make([]float32, len(src))
			if _, err := q.ReadBuffer(got, b); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if g, want := bits(got), bits(src); !slices.Equal(g, want) {
				t.Fatalf("step %d: device holds %08x, source is %08x", step, g, want)
			}
			b.Release()
			if base == nil && b.data != nil {
				t.Fatalf("step %d: a released slot still holds a source not declared stable", step)
			}
			if !wantSkip {
				uploads++
			}
			held, heldWidth, heldLen = base, width, len(src)
		}
		if st := a.Stats(); st.Uploads != uploads || st.UploadsSkipped != int64(len(ops))-uploads {
			t.Fatalf("uploads %d, skips %d; want %d and %d", st.Uploads, st.UploadsSkipped, uploads, int64(len(ops))-uploads)
		}
		a.Drain()
		if live := ctx.LiveBuffers(); live != 0 {
			t.Fatalf("%d buffers live after Drain", live)
		}
	})
}

// TestUploadResidentAfterFailedWrite: a slot whose first bind failed
// holds no array, so the next bind of the same array uploads, and the
// failed call returned its hand-out, so the idle slot stays evictable.
func TestUploadResidentAfterFailedWrite(t *testing.T) {
	ctx := NewContext(NewDevice(XeonX5660Spec(1)))
	ctx.SetFaultPlan(NewFaultPlan(1).Add(FaultRule{Op: FaultWrite, Nth: 0}))
	a, q := ctx.Pool(), NewQueue(ctx)
	zeros := make([]float32, 16)
	if _, err := a.UploadResident(q, "u", "u", zeros, 1, false); !errors.Is(err, ErrTransferFailed) {
		t.Fatalf("first upload: err = %v, want the injected write fault", err)
	}
	b, err := a.UploadResident(q, "u", "u", zeros, 1, false)
	if err != nil {
		t.Fatalf("second upload: %v", err)
	}
	b.Release()
	if st := a.Stats(); st.Uploads != 1 || st.UploadsSkipped != 0 {
		t.Fatalf("uploads %d, skips %d; want 1 and 0", st.Uploads, st.UploadsSkipped)
	}
	if !a.evictIdleResidents() {
		t.Fatal("the slot still counts a hand-out after every call returned or released it")
	}
}

// BenchmarkUploadResident times one warm resident bind of a 64^3 field
// and its release: a source not declared stable (an upload: the fault
// point and the modeled event, no copy) and a stable array bound again
// (a skip: a pointer check).
func BenchmarkUploadResident(b *testing.B) {
	const n = 64 * 64 * 64
	rows := []struct {
		name   string
		stable bool
	}{
		{"upload", false},
		{"stable", true},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			ctx := NewContext(NewDevice(XeonX5660Spec(1)))
			a, q := ctx.Pool(), NewQueue(ctx)
			q.SetEventLog(false)
			src := make([]float32, n)
			for i := range src {
				src[i] = float32(i) * 0.25
			}
			upload := func() {
				buf, err := a.UploadResident(q, "u", "u", src, 1, row.stable)
				if err != nil {
					b.Fatal(err)
				}
				buf.Release()
			}
			upload()
			b.SetBytes(4 * n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upload()
			}
		})
	}
}

// TestFaultedBindLeaksNoHandOut: a bind whose write fault point fires —
// with an error or a panic — returns its hand-out and leaves the slot's
// buffer as it was: the source bound before is still there while its
// own hand-out lasts, the failed source is never bound, and once every
// hand-out is released the slot holds no array and is evictable.
func TestFaultedBindLeaksNoHandOut(t *testing.T) {
	for _, effect := range []FaultEffect{EffectError, EffectPanic} {
		ctx := NewContext(NewDevice(XeonX5660Spec(1)))
		a, q := ctx.Pool(), NewQueue(ctx)
		u, v := []float32{1, 2}, []float32{3, 4}
		held, err := a.UploadResident(q, "u", "u", u, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		plan := NewFaultPlan(1).Add(FaultRule{Op: FaultWrite, Nth: 0, Effect: effect})
		ctx.SetFaultPlan(plan)
		func() {
			defer func() { recover() }()
			if _, err := a.UploadResident(q, "u", "u", v, 1, false); !errors.Is(err, ErrTransferFailed) {
				t.Fatalf("%v: bind = %v, want the injected write fault", effect, err)
			}
		}()
		if r := a.resident["u"]; r.refs != 1 || &r.buf.data[0] != &u[0] {
			t.Fatalf("%v: after the faulted bind the slot counts %d hand-outs, holding %v; want 1, holding u", effect, r.refs, r.buf.data)
		}
		held.Release()
		if st, writes := a.Stats(), plan.seen[FaultWrite]; st.Uploads != 1 || st.UploadsSkipped != 0 || writes != 1 {
			t.Fatalf("%v: uploads %d, skips %d, writes attempted %d; want 1, 0 and 1", effect, st.Uploads, st.UploadsSkipped, writes)
		}
		if n := a.HostAliases(); n != 0 {
			t.Fatalf("%v: %d slots still hold a host array", effect, n)
		}
		if !a.evictIdleResidents() {
			t.Fatalf("%v: the slot still counts a hand-out after every call returned or released it", effect)
		}
	}
}

// TestRecycledUploadNeverWritesTheCallersArray: an upload binds the
// caller's array without copying it, and its release drops the alias, so
// the pooled buffer's next use — a kernel's output — writes into fresh
// storage, never into the array that was uploaded. Without a pool the
// released buffer does not pin the array either.
func TestRecycledUploadNeverWritesTheCallersArray(t *testing.T) {
	fill := &Kernel{Name: "kfill", NumBufs: 1, Passes: []KernelFunc{func(lo, hi int, bufs []View) {
		for i := lo; i < hi; i++ {
			bufs[0].Data[i] = 9
		}
	}}}
	for _, pooled := range []bool{false, true} {
		env := NewEnv(NewDevice(XeonX5660Spec(4)))
		if pooled {
			env.SetPool(env.Context().Pool())
		}
		src := []float32{1, 2, 3, 4}
		in, err := env.Upload("in", src, 1)
		if err != nil {
			t.Fatal(err)
		}
		if &in.Data()[0] != &src[0] {
			t.Fatalf("pooled=%v: the upload copied the array", pooled)
		}
		in.Release()
		if in.data != nil {
			t.Fatalf("pooled=%v: a released upload still holds the caller's array", pooled)
		}
		out, err := env.NewBuffer("out", 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pooled && out != in {
			t.Fatal("the pool did not recycle the uploaded buffer")
		}
		if err := env.Run(fill, 4, []*Buffer{out}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(src, []float32{1, 2, 3, 4}) {
			t.Fatalf("pooled=%v: a kernel wrote into the uploaded array: %v", pooled, src)
		}
		if pooled && env.Pool().HostAliases() != 0 {
			t.Fatal("an idle buffer holds a host array")
		}
	}
}
