package kernels

// The lane primitives are the executor's arithmetic loops over
// equal-length float32 lanes, dst[e] = a[e] op b[e]. Each is one function:
// an 8-wide AVX2 body (lanes_amd64.s) over the first len(dst)&^7 elements
// where the CPU and the OS support it, and the Go loop over the rest —
// all of them elsewhere. Both run the same correctly rounded IEEE-754
// operation on the same operands in the same order under one MXCSR (no
// FMA, no reciprocal), so they agree bit for bit, NaN payloads included.
//
// a and b must hold at least len(dst) elements: the reslice panics on a
// short operand before anything is stored. dst may be a, b or both —
// every step loads its operands before it stores the same indexes, which
// the executor's in-place slot reuse relies on; no other overlap is
// supported.

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

// AddLanes sets dst[e] = a[e] + b[e].
func AddLanes(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := vectorLen(len(dst))
	if n > 0 {
		addAVX2(dst, a, b)
	}
	for e := n; e < uint(len(dst)); e++ {
		dst[e] = a[e] + b[e]
	}
}

// SubLanes sets dst[e] = a[e] - b[e].
func SubLanes(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := vectorLen(len(dst))
	if n > 0 {
		subAVX2(dst, a, b)
	}
	for e := n; e < uint(len(dst)); e++ {
		dst[e] = a[e] - b[e]
	}
}

// MulLanes sets dst[e] = a[e] * b[e].
func MulLanes(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := vectorLen(len(dst))
	if n > 0 {
		mulAVX2(dst, a, b)
	}
	for e := n; e < uint(len(dst)); e++ {
		dst[e] = a[e] * b[e]
	}
}

// DivLanes sets dst[e] = a[e] / b[e].
func DivLanes(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := vectorLen(len(dst))
	if n > 0 {
		divAVX2(dst, a, b)
	}
	for e := n; e < uint(len(dst)); e++ {
		dst[e] = a[e] / b[e]
	}
}
