package kernels

// The vector bodies (lanes_amd64.s) process the first len(dst)&^7
// elements and ignore the rest; operands hold at least len(dst) elements.

//go:noescape
func addAVX2(dst, a, b []float32)

//go:noescape
func subAVX2(dst, a, b []float32)

//go:noescape
func mulAVX2(dst, a, b []float32)

//go:noescape
func divAVX2(dst, a, b []float32)

//go:noescape
func minAVX2(dst, a, b []float32)

//go:noescape
func maxAVX2(dst, a, b []float32)

//go:noescape
func sqrtAVX2(dst, a []float32)

// The fused rows' bodies (fused.go): each computes its row over the first
// n&^7 elements of dst from the row's inputs, a first.

//go:noescape
func accSqSumAVX2(n uint, dst, a, b, c, d *float32)

//go:noescape
func accSqDiffAVX2(n uint, dst, a, b, c, d *float32)

//go:noescape
func sqSumAVX2(n uint, dst, a, b, c, d *float32)

//go:noescape
func sqDiffAVX2(n uint, dst, a, b, c, d *float32)

//go:noescape
func dot2AVX2(n uint, dst, a, b, c, d *float32)

//go:noescape
func accMulAVX2(n uint, dst, a, b, c, d *float32)

// diffRowAVX2 sets dst[e] = (fb[e] - fa[e]) / (cb[e] - ca[e]).
//
//go:noescape
func diffRowAVX2(dst, fa, fb, ca, cb []float32)

func cpuid(eax, ecx uint32) (a, b, c, d uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state across context switches (OSXSAVE set, XCR0 bits 1 and 2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}
