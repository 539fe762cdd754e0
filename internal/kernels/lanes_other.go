//go:build !amd64

package kernels

func hasAVX2() bool { return false }

func addAVX2(dst, a, b []float32) { panic("kernels: no vector body on this architecture") }
func subAVX2(dst, a, b []float32) { panic("kernels: no vector body on this architecture") }
func mulAVX2(dst, a, b []float32) { panic("kernels: no vector body on this architecture") }
func divAVX2(dst, a, b []float32) { panic("kernels: no vector body on this architecture") }
func diffRowAVX2(dst, fa, fb, ca, cb []float32) {
	panic("kernels: no vector body on this architecture")
}
