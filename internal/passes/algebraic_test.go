package passes

import (
	"math"
	"testing"

	"dfg/internal/dataflow/dftest"
	"dfg/internal/kernels"
)

// valueClasses is every class a float32 lane can hold — the same twenty
// values as the kernels package's lane tests: signed zeros, infinities,
// quiet and signalling NaNs, denormals, the extremes and a few normals.
var valueClasses = func() []float32 {
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

// sameClass reports whether a and b are the same float32: equal bits,
// or both NaN (IEEE 754 does not fix which NaN payload propagates).
func sameClass(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// TestAlgebraicRulesExact runs the algebraic pass on f(x, c) and
// f(c, x) for each arithmetic filter and every constant class c, and
// wherever it forwards the node, checks the forwarded operand against
// the primitive's lane body over every x class: every ordered pair of
// value classes, compared by bits with every NaN one class. Every
// identity row must fire somewhere.
func TestAlgebraicRulesExact(t *testing.T) {
	fired := make([]bool, len(identities))
	for _, f := range []string{"add", "sub", "mul", "div"} {
		p, ok := kernels.Lookup(f)
		if !ok {
			t.Fatalf("no primitive %q", f)
		}
		for side := 0; side < 2; side++ {
			for _, c := range valueClasses {
				nw := dftest.New()
				x, err := nw.AddSource("x")
				if err != nil {
					t.Fatal(err)
				}
				k := nw.AddConst(float64(c))
				ins := []string{x, k}
				if side == 0 {
					ins[0], ins[1] = k, x
				}
				id, err := nw.AddFilter(f, ins...)
				if err != nil {
					t.Fatal(err)
				}
				if err := nw.SetOutput(id); err != nil {
					t.Fatal(err)
				}
				if err := Algebraic().Run(nw.Network, &Stats{}); err != nil {
					t.Fatal(err)
				}
				to := nw.Output()
				if to == id {
					continue // not rewritten
				}
				for i, r := range identities {
					if r.filter == f && r.side == side && r.bits == math.Float32bits(c) {
						fired[i] = true
					}
				}
				for _, xv := range valueClasses {
					a, b := []float32{xv}, []float32{c}
					if side == 0 {
						a, b = b, a
					}
					var got [1]float32
					p.Apply(got[:], [][]float32{a, b})
					want := xv
					if to == k {
						want = c
					}
					if !sameClass(got[0], want) {
						t.Errorf("%s with %#08x as operand %d forwards to %s, but x = %#08x computes %#08x, not %#08x",
							f, math.Float32bits(c), side, to, math.Float32bits(xv), math.Float32bits(got[0]), math.Float32bits(want))
					}
				}
			}
		}
	}
	for i, ok := range fired {
		if !ok {
			t.Errorf("identity row %+v never fired", identities[i])
		}
	}

	// The caveat the rule comment states: the arithmetic quiets a
	// signalling NaN, which forwarding x leaves signalling.
	snan := math.Float32frombits(0x7f800003)
	var got [1]float32
	mul, _ := kernels.Lookup("mul")
	mul.Apply(got[:], [][]float32{{snan}, {1}})
	if math.Float32bits(got[0]) == 0x7f800003 || !sameClass(got[0], snan) {
		t.Errorf("sNaN*1 = %#08x, want a quieted NaN", math.Float32bits(got[0]))
	}
}
