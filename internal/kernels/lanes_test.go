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
			t.Fatalf("%s: element %d: got %#08x, want %#08x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestSqrtLanesEveryExponent holds sqrt's lane body to the float64 square
// root rounded to float32, bit for bit, over every sign and exponent:
// for each, the lowest and highest 64 mantissas and a strided walk
// between them. Exponent 0 holds ±0 and the denormals, exponent 255 ±Inf
// and the quiet and signalling NaN payloads (the highest mantissas are
// quiet, the lowest nonzero ones signalling). Each pair of sign and
// exponent is one lane whose length is not a multiple of 8, so the
// vector body and the Go tail both see it.
func TestSqrtLanesEveryExponent(t *testing.T) {
	const lo, hi, stride = 64, 1<<23 - 64, 1019
	var mantissas []uint32
	for m := uint32(0); m < lo; m++ {
		mantissas = append(mantissas, m)
	}
	for m := uint32(lo); m < hi; m += stride {
		mantissas = append(mantissas, m)
	}
	for m := uint32(hi); m < 1<<23; m++ {
		mantissas = append(mantissas, m)
	}
	if len(mantissas)%8 == 0 {
		t.Fatalf("%d mantissas leave the Go tail nothing: pick another stride", len(mantissas))
	}
	eachDispatch(t, func(t *testing.T) {
		in := make([]float32, len(mantissas))
		got, want := make([]float32, len(in)), make([]float32, len(in))
		for top := uint32(0); top < 1<<9; top++ { // sign and exponent
			for i, m := range mantissas {
				in[i] = math.Float32frombits(top<<23 | m)
				want[i] = float32(math.Sqrt(float64(in[i])))
			}
			sqrtLanes(got, in)
			sameBits(t, fmt.Sprintf("sqrt sign=%d exponent=%d", top>>8, top&0xff), got, want)
		}
	})
}

// TestFusedRowsMatchComposition: every fused row — its AVX2 body with the
// composed tail, and the composed body alone — produces the bits of its
// steps run one by one through the primitive rows' lane bodies, NaN
// payloads included (the bodies issue the same operations in the same
// order), for every ordered tuple of value classes and for every length
// 0..17, 256 and 512 at every alignment, writing nothing outside dst and
// tmp.
func TestFusedRowsMatchComposition(t *testing.T) {
	eachDispatch(t, fusedMatchComposition)
}

// composeSteps runs a fused row's steps through the primitive table, each
// step into a fresh lane, over the inputs' first n elements.
func composeSteps(r *Fused, in [4][]float32, n int) []float32 {
	vals := make([][]float32, len(r.Steps))
	for j, s := range r.Steps {
		var ops [2][]float32
		for k, ref := range s.Args {
			if d, ok := ref.Step(); ok {
				ops[k] = vals[d]
			} else {
				ops[k] = in[ref][:n]
			}
		}
		p, _ := Lookup(s.Prim)
		vals[j] = make([]float32, n)
		p.Binary(vals[j], ops[0], ops[1])
	}
	return vals[len(vals)-1]
}

func fusedMatchComposition(t *testing.T) {
	L := len(laneValues)
	for i := range FusedRows() {
		r := &FusedRows()[i]

		// Every ordered tuple of classes, in one long lane.
		n := 1
		for k := 0; k < r.Inputs; k++ {
			n *= L
		}
		var in [4][]float32
		for k, stride := 0, 1; k < r.Inputs; k, stride = k+1, stride*L {
			in[k] = make([]float32, n)
			for e := range in[k] {
				in[k][e] = laneValues[e/stride%L]
			}
		}
		got := make([]float32, n)
		r.Apply(got, make([]float32, n), &in)
		sameBits(t, r.Name+" all tuples", got, composeSteps(r, in, n))

		rot := 0
		lengths := []int{256, 512}
		for n := 0; n <= 17; n++ {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			for off := 0; off < 8; off++ {
				rot++
				backD, d := window(n, off)
				backT, tmp := window(n, (off+5)%8)
				for e := range backD {
					backD[e], backT[e] = 77, 77
				}
				var in [4][]float32
				for k := 0; k < r.Inputs; k++ {
					_, in[k] = window(n, (off+3*k+1)%8)
					for e := range in[k] {
						in[k][e] = laneValues[(e+rot+k*(rot/L))%L]
					}
				}
				r.Apply(d, tmp, &in)
				what := fmt.Sprintf("%s n=%d off=%d", r.Name, n, off)
				sameBits(t, what, d, composeSteps(r, in, n))
				for e := range backD {
					if e < 8+off || e >= 8+off+n {
						if backD[e] != 77 {
							t.Fatalf("%s: wrote outside dst at %d", what, e-8-off)
						}
					}
					if o := (off + 5) % 8; (e < 8+o || e >= 8+o+n) && backT[e] != 77 {
						t.Fatalf("%s: wrote outside tmp at %d", what, e-8-o)
					}
				}
			}
		}
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

// TestLanesShortOperandPanicsBeforeWriting: an operand shorter than dst
// is a caller bug; the reslice reports it before anything is stored —
// the vector bodies' stores are unchecked. The same holds for the fused
// rows.
func TestLanesShortOperandPanicsBeforeWriting(t *testing.T) {
	type body struct {
		name  string
		arity int
		apply func(dst []float32, in [][]float32)
	}
	var bodies []body
	for _, p := range Primitives() {
		bodies = append(bodies, body{p.Name, p.Arity, p.Apply})
	}
	for i := range FusedRows() {
		r := &FusedRows()[i]
		bodies = append(bodies, body{r.Name, r.Inputs, func(dst []float32, in [][]float32) {
			var a [4][]float32
			copy(a[:], in)
			r.Apply(dst, make([]float32, len(dst)), &a)
		}})
	}
	eachDispatch(t, func(t *testing.T) {
		for _, p := range bodies {
			for short := 0; short < p.arity; short++ {
				dst, in := make([]float32, 24), make([][]float32, p.arity)
				for k := range in {
					in[k] = make([]float32, 24)
					for i := range in[k] {
						in[k][i] = float32(k + 1)
					}
				}
				in[short] = in[short][:23:23]
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s accepted a short operand %d", p.name, short)
						}
					}()
					p.apply(dst, in)
				}()
				for i, v := range dst {
					if v != 0 {
						t.Fatalf("%s with a short operand %d wrote dst[%d] = %v before panicking", p.name, short, i, v)
					}
				}
			}
		}
	})
}
