package kernels

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// eachDispatch runs f with the Go loops as the whole body and, where the
// probe found AVX2, with the vector bodies in front of them.
func eachDispatch(t *testing.T, f func(t *testing.T)) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	t.Run("go", f)
	if hasAVX2() {
		useAVX2 = true
		t.Run("avx2", f)
	}
}

// laneValues is every class a lane can hold; distinct payloads tell a
// NaN that came from a apart from one that came from b.
var laneValues = func() []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, // +0, -0
		0x7f800000, 0xff800000, // +Inf, -Inf
		0x7fc00001, 0xffc00002, // quiet NaNs
		0x7f800003, 0xff800004, 0x7fa00005, // signalling NaNs
		0x00000001, 0x807fffff, // denormals
		0x7f7fffff, 0xff7fffff, // +-MaxFloat32
		0x00800000,                         // smallest normal
		0x3f800000, 0xbf800000, 0x40490fdb, // 1, -1, pi
		0x3eaaaaab, 0x5f000000, 0x1e3ce508, // 1/3, 2^63, 1e-20
	}
	v := make([]float32, len(bits))
	for i, b := range bits {
		v[i] = math.Float32frombits(b)
	}
	return v
}()

// window returns n floats starting off floats past a 32-byte boundary,
// and the backing array around them: 8 guard floats, the boundary at
// index 8, and at least 8 guard floats after the window.
func window(n, off int) (backing, w []float32) {
	raw := make([]float32, n+40)
	s := 8
	for uintptr(unsafe.Pointer(&raw[s]))%32 != 0 {
		s++
	}
	backing = raw[s-8 : s+n+16]
	return backing, backing[8+off : 8+off+n : 8+off+n]
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d: vector %#08x, Go loop %#08x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestLanesVectorMatchesGoLoop: the vector body and the Go loop produce
// the same bits — NaN payloads included — and write nothing outside dst,
// for every length around the 8-wide step, every alignment of the
// operands, every legal aliasing of dst, and every pair of value classes
// (x/0 and 0/0 among them).
func TestLanesVectorMatchesGoLoop(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2: the Go loop is the only body")
	}
	defer func(v bool) { useAVX2 = v }(useAVX2)
	ops := []struct {
		name string
		f    func(dst, a, b []float32)
	}{{"add", AddLanes}, {"sub", SubLanes}, {"mul", MulLanes}, {"div", DivLanes}}
	L := len(laneValues)
	rot := 0
	for _, op := range ops {
		for n := 0; n <= 70; n++ {
			for off := 0; off < 8; off++ {
				for alias := 0; alias < 4; alias++ { // bit 0: dst is a, bit 1: dst is b
					rot++
					// run fills fresh operands, runs the op and returns
					// dst's whole backing array, guards included.
					run := func(vec bool) []float32 {
						backD, d := window(n, off)
						_, a := window(n, (off+3)%8)
						_, b := window(n, (off+6)%8)
						if alias&1 != 0 {
							a = d
						}
						if alias&2 != 0 {
							b = d
						}
						for i := range backD {
							backD[i] = 77
						}
						// b first, so that under full aliasing a's values win.
						for i := range b {
							b[i] = laneValues[(i+rot+rot/L)%L]
						}
						for i := range a {
							a[i] = laneValues[(i+rot)%L]
						}
						useAVX2 = vec
						op.f(d, a, b)
						return backD
					}
					what := fmt.Sprintf("%s n=%d off=%d alias=%d", op.name, n, off, alias)
					sameBits(t, what, run(true), run(false))
				}
			}
		}
	}
	// Every ordered pair of classes, in one long lane.
	a, b := make([]float32, L*L), make([]float32, L*L)
	for i := range a {
		a[i], b[i] = laneValues[i/L], laneValues[i%L]
	}
	for _, op := range ops {
		vec, loop := make([]float32, L*L), make([]float32, L*L)
		useAVX2 = true
		op.f(vec, a, b)
		useAVX2 = false
		op.f(loop, a, b)
		sameBits(t, op.name+" all pairs", vec, loop)
	}
}

// TestDiffRowVectorMatchesGoLoop is the same comparison for the stencil
// row, whose four operand windows sit at unrelated alignments.
func TestDiffRowVectorMatchesGoLoop(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2: the Go loop is the only body")
	}
	defer func(v bool) { useAVX2 = v }(useAVX2)
	L := len(laneValues)
	for n := 0; n <= 70; n++ {
		for off := 0; off < 8; off++ {
			_, f := window(n+14, off)
			_, coord := window(n+14, (off+5)%8)
			for i := range f {
				f[i] = laneValues[(i*7+n)%L]
				coord[i] = laneValues[(i*3+off+n/L)%L]
			}
			for _, ab := range [][2]int{{0, 1}, {-1, 0}, {-1, 1}, {0, 9}, {-4, 4}} {
				run := func(vec bool) []float32 {
					back, d := window(n, (off+2)%8)
					for i := range back {
						back[i] = 77
					}
					useAVX2 = vec
					diffRow(d, f, coord, 4, ab[0], ab[1])
					return back
				}
				sameBits(t, fmt.Sprintf("diffRow n=%d off=%d offsets=%v", n, off, ab), run(true), run(false))
			}
		}
	}
}

// TestLanesShortOperandPanicsBeforeWriting: a or b shorter than dst is a
// caller bug; the reslice reports it before the unchecked vector stores.
func TestLanesShortOperandPanicsBeforeWriting(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		for name, f := range map[string]func(dst, a, b []float32){"add": AddLanes, "sub": SubLanes, "mul": MulLanes, "div": DivLanes} {
			for _, short := range []string{"a", "b"} {
				dst, a, b := make([]float32, 24), make([]float32, 24), make([]float32, 24)
				for i := range a {
					a[i], b[i] = 1, 2
				}
				if short == "a" {
					a = a[:23:23]
				} else {
					b = b[:23:23]
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s accepted a short %s", name, short)
						}
					}()
					f(dst, a, b)
				}()
				for i, v := range dst {
					if v != 0 {
						t.Fatalf("%s with a short %s wrote dst[%d] = %v before panicking", name, short, i, v)
					}
				}
			}
		}
	})
}
