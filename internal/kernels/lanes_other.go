//go:build !amd64

package kernels

func hasAVX2() bool { return false }

func addAVX2(dst, a, b []float32) { panic("kernels: no vector body on this architecture") }
func subAVX2(dst, a, b []float32) { panic("kernels: no vector body on this architecture") }
func mulAVX2(dst, a, b []float32) { panic("kernels: no vector body on this architecture") }
func divAVX2(dst, a, b []float32) { panic("kernels: no vector body on this architecture") }
func minAVX2(dst, a, b []float32) { panic("kernels: no vector body on this architecture") }
func maxAVX2(dst, a, b []float32) { panic("kernels: no vector body on this architecture") }
func sqrtAVX2(dst, a []float32)   { panic("kernels: no vector body on this architecture") }
func diffRowAVX2(dst, fa, fb, ca, cb []float32) {
	panic("kernels: no vector body on this architecture")
}

func accSqSumAVX2(n uint, dst, a, b, c, d *float32) {
	panic("kernels: no vector body on this architecture")
}
func accSqDiffAVX2(n uint, dst, a, b, c, d *float32) {
	panic("kernels: no vector body on this architecture")
}
func sqSumAVX2(n uint, dst, a, b, c, d *float32) {
	panic("kernels: no vector body on this architecture")
}
func sqDiffAVX2(n uint, dst, a, b, c, d *float32) {
	panic("kernels: no vector body on this architecture")
}
func dot2AVX2(n uint, dst, a, b, c, d *float32) {
	panic("kernels: no vector body on this architecture")
}
func accMulAVX2(n uint, dst, a, b, c, d *float32) {
	panic("kernels: no vector body on this architecture")
}
