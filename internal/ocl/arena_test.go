package ocl

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// FuzzUploadResident drives a random sequence of UploadResident calls on
// one slot. Each input byte is one step — an edit of the source, then an
// upload: action b%8, argument b/8.
//
//	0  a new array: width 1, 2 or 4, b/8 elements of fresh values
//	1  flip bit b/8 of the first word
//	2  flip bit b/8 of the middle word
//	3  flip bit b/8 of the last word
//	4  set the first, middle or last word to +0 or -0
//	5  set the first, middle or last word to a NaN payload
//	6  the same bits in a new array
//	7  toggle whether uploads declare the array stable
//
// An array once declared stable is never edited in place; an edit clones
// it first, keeping the caller's promise. After every call the device
// must hold exactly the source's bits, and the call must have skipped
// exactly when the slot already held those bits at that shape. The
// promise makes that hold for stable calls too: the array the slot
// remembers cannot have changed.
func FuzzUploadResident(f *testing.F) {
	f.Add([]byte{0 | 8<<3, 1, 1 | 31<<3, 2 | 7<<3, 3, 7, 6, 6, 7, 4, 4 | 3<<3, 5, 5 | 9<<3})
	f.Add([]byte{0 | 5<<3, 7, 3 | 31<<3, 3 | 31<<3, 0 | 6<<3, 0 | 7<<3, 0, 0, 7, 1})
	f.Add([]byte{7, 0 | 12<<3, 6, 4 | 4<<3, 4 | 1<<3, 5 | 2<<3, 5 | 18<<3, 6, 7, 6, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ctx := NewContext(NewDevice(XeonX5660Spec(1)))
		a, q := ctx.Pool(), NewQueue(ctx)
		src, width := []float32{1, 2, 3}, 1
		declared, stable := false, false
		var held []uint32 // the slot's bits; nil before the first upload
		heldWidth, uploads := 0, int64(0)
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

			want := bits(src)
			wantSkip := held != nil && heldWidth == width && slices.Equal(held, want)
			before := a.Stats().UploadsSkipped
			b, err := a.UploadResident(q, "u", "u", src, width, stable)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			// The read is a device operation: a pending check resolves
			// before it.
			got := make([]float32, len(src))
			if _, err := q.ReadBuffer(got, b); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if skipped := a.Stats().UploadsSkipped > before; skipped != wantSkip {
				t.Fatalf("step %d (op %d, stable %v): skipped = %v, want %v", step, op&7, stable, skipped, wantSkip)
			}
			if g := bits(got); !slices.Equal(g, want) {
				t.Fatalf("step %d: device holds %08x, source is %08x", step, g, want)
			}
			b.Release()
			if !wantSkip {
				uploads++
			}
			held, heldWidth = want, width
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

// TestUploadResidentAfterFailedWrite: a slot whose first upload failed
// holds no source's bytes, so the next bind uploads even when its bytes
// equal the buffer's (all zeros), and the failed call returned its
// hand-out, so the idle slot stays evictable.
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

// BenchmarkUploadResident times one warm residency check of a 64^3 field,
// resolved when the hand-out is released (no launch reads it here):
// unchanged bytes (a full comparison, no copy), a change in the first or
// the last word (the comparison stops there, then the copy), and a
// stable array bound again (a pointer check).
func BenchmarkUploadResident(b *testing.B) {
	const n = 64 * 64 * 64
	rows := []struct {
		name   string
		edit   int // index flipped before each call; -1 for none
		stable bool
	}{
		{"unchanged", -1, false},
		{"first-word-changed", 0, false},
		{"last-word-changed", n - 1, false},
		{"stable", -1, true},
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
				if row.edit >= 0 {
					src[row.edit] = math.Float32frombits(math.Float32bits(src[row.edit]) ^ 1)
				}
				upload()
			}
		})
	}
}

// TestPendingChecksDropAfterFailedWrite: checks pending on a queue
// resolve in upload order, and when one's write fails — with an error or
// a panic from its fault point — the checks after it are dropped, as
// the uploads after a failed eager one never happen: releasing their
// hand-outs resolves nothing more, and no fault point is consulted
// again.
func TestPendingChecksDropAfterFailedWrite(t *testing.T) {
	for _, effect := range []FaultEffect{EffectError, EffectPanic} {
		ctx := NewContext(NewDevice(XeonX5660Spec(1)))
		a, q := ctx.Pool(), NewQueue(ctx)
		u, v := []float32{1, 2}, []float32{3, 4}
		for _, key := range []string{"u", "v"} {
			b, err := a.UploadResident(q, key, key, u, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			b.Release()
		}
		plan := NewFaultPlan(1).Add(FaultRule{Op: FaultWrite, Nth: 0, Effect: effect})
		ctx.SetFaultPlan(plan)
		bu, err := a.UploadResident(q, "u", "u", v, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		bv, err := a.UploadResident(q, "v", "v", v, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() { recover() }()
			if _, err := q.ReadBuffer(make([]float32, 2), bu); !errors.Is(err, ErrTransferFailed) {
				t.Fatalf("%v: read = %v, want the write fault of the check it resolves", effect, err)
			}
		}()
		bu.Release()
		bv.Release()
		if st, writes := a.Stats(), plan.seen[FaultWrite]; st.Uploads != 2 || st.UploadsSkipped != 0 || writes != 1 {
			t.Fatalf("%v: uploads %d, skips %d, writes attempted %d; want 2, 0 and 1", effect, st.Uploads, st.UploadsSkipped, writes)
		}
		if len(q.pending) != 0 {
			t.Fatalf("%v: %d checks still pending", effect, len(q.pending))
		}
	}
}
