package kernels

import "math"

// The lane bodies are the primitive table's executable column: loops
// over equal-length float32 lanes, dst[e] = f(a[e], ...), and the only
// place an elementwise primitive's arithmetic is written. Each computes
// what its row's OpenCL C expression says.
//
// add, sub, mul, div, min, max and sqrt are each one function: an
// 8-wide AVX2 body (lanes_amd64.s) over the first len(dst)&^7 elements
// where the CPU and the OS support it, and the Go loop over the rest —
// all of them elsewhere. Both run the same correctly rounded IEEE-754
// operation on the same operands in the same order under one MXCSR (no
// FMA, no reciprocal), and min and max blend NaNs as the Go loop picks
// them, so they agree bit for bit, NaN payloads included.
//
// Operands must hold at least len(dst) elements: the reslice panics on a
// short operand before anything is stored. dst may be any of the
// operands — every step loads its operands before it stores the same
// indexes, which the executor's in-place slot reuse relies on; no other
// overlap is supported. Ranging over dst with the operands resliced to
// its length is also what lets the compiler drop the bounds checks.

// useAVX2 selects the vector bodies: probed once, flipped only by tests.
var useAVX2 = hasAVX2()

// vectorLen is how many of a lane's n elements its vector body covers:
// the whole steps of 8 where AVX2 is on — none for a lane shorter than
// one step, which is not worth the call — and none elsewhere.
func vectorLen(n int) uint {
	if !useAVX2 {
		return 0
	}
	return uint(n &^ 7)
}

// addLanes sets dst[e] = a[e] + b[e].
func addLanes(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := vectorLen(len(dst))
	if n > 0 {
		addAVX2(dst, a, b)
	}
	for e := n; e < uint(len(dst)); e++ {
		dst[e] = a[e] + b[e]
	}
}

// subLanes sets dst[e] = a[e] - b[e].
func subLanes(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := vectorLen(len(dst))
	if n > 0 {
		subAVX2(dst, a, b)
	}
	for e := n; e < uint(len(dst)); e++ {
		dst[e] = a[e] - b[e]
	}
}

// mulLanes sets dst[e] = a[e] * b[e].
func mulLanes(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := vectorLen(len(dst))
	if n > 0 {
		mulAVX2(dst, a, b)
	}
	for e := n; e < uint(len(dst)); e++ {
		dst[e] = a[e] * b[e]
	}
}

// divLanes sets dst[e] = a[e] / b[e].
func divLanes(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := vectorLen(len(dst))
	if n > 0 {
		divAVX2(dst, a, b)
	}
	for e := n; e < uint(len(dst)); e++ {
		dst[e] = a[e] / b[e]
	}
}

// minLanes is fmin: a NaN operand yields the other operand. Otherwise
// the result is a unless b < a, so of a +0/-0 pair it keeps a. The
// ordered a <= b case comes first so that it costs one comparison.
func minLanes(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := vectorLen(len(dst))
	if n > 0 {
		minAVX2(dst, a, b)
	}
	for e := n; e < uint(len(dst)); e++ {
		switch x, y := a[e], b[e]; {
		case x <= y:
			dst[e] = x
		case y < x, x != x:
			dst[e] = y
		default: // only b is NaN
			dst[e] = x
		}
	}
}

// maxLanes is fmax, with minLanes' rules mirrored.
func maxLanes(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := vectorLen(len(dst))
	if n > 0 {
		maxAVX2(dst, a, b)
	}
	for e := n; e < uint(len(dst)); e++ {
		switch x, y := a[e], b[e]; {
		case x >= y:
			dst[e] = x
		case y > x, x != x:
			dst[e] = y
		default: // only b is NaN
			dst[e] = x
		}
	}
}

// sqrtLanes rounds the float64 square root to float32, which is the
// correctly rounded float32 square root: 53 >= 2*24+2 bits make the
// double rounding innocuous. The vector body's VSQRTPS computes that
// directly.
func sqrtLanes(dst, a []float32) {
	a = a[:len(dst)]
	n := vectorLen(len(dst))
	if n > 0 {
		sqrtAVX2(dst, a)
	}
	for e := n; e < uint(len(dst)); e++ {
		dst[e] = float32(math.Sqrt(float64(a[e])))
	}
}

func negLanes(dst, a []float32) {
	a = a[:len(dst)]
	for e := range dst {
		dst[e] = -a[e]
	}
}

// absLanes is fabs: it clears the sign bit, of zeros and NaNs too.
func absLanes(dst, a []float32) {
	a = a[:len(dst)]
	for e := range dst {
		dst[e] = math.Float32frombits(math.Float32bits(a[e]) &^ (1 << 31))
	}
}

// mapLanes builds the lane body of a float64 math function.
func mapLanes(f func(float64) float64) func(dst, a []float32) {
	return func(dst, a []float32) {
		a = a[:len(dst)]
		for e := range dst {
			dst[e] = float32(f(float64(a[e])))
		}
	}
}

func powLanes(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for e := range dst {
		dst[e] = float32(math.Pow(float64(a[e]), float64(b[e])))
	}
}

// cmpLanes builds a comparison's lane body from its truth table: what it
// stores where a < b, where a == b, where a > b, and where the pair is
// unordered (a NaN operand).
func cmpLanes(lt, eq, gt, unordered float32) func(dst, a, b []float32) {
	return func(dst, a, b []float32) {
		a, b = a[:len(dst)], b[:len(dst)]
		for e := range dst {
			switch x, y := a[e], b[e]; {
			case x < y:
				dst[e] = lt
			case x == y:
				dst[e] = eq
			case x > y:
				dst[e] = gt
			default:
				dst[e] = unordered
			}
		}
	}
}

// selectLanes sets dst[e] = a[e] where c[e] != 0 (NaN included), else
// b[e].
func selectLanes(dst, c, a, b []float32) {
	c, a, b = c[:len(dst)], a[:len(dst)], b[:len(dst)]
	for e := range dst {
		if c[e] != 0 {
			dst[e] = a[e]
		} else {
			dst[e] = b[e]
		}
	}
}
