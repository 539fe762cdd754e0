#include "textflag.h"

// LANES is the body of dst[e] = a[e] OP b[e] over len(dst)&^7 elements,
// 8 per step. Each step loads both operands before it stores, so dst may
// be a or b. VOP (BX)(AX*1), Y0, Y0 computes Y0 OP mem: a is the first
// source operand, as in the Go loop.
#define LANES(VOP) \
	MOVQ dst_base+0(FP), DI \
	MOVQ dst_len+8(FP), CX \
	MOVQ a_base+24(FP), SI \
	MOVQ b_base+48(FP), BX \
	XORQ AX, AX \
	SHRQ $3, CX \
	JZ   done \
	PCALIGN $32 \
loop: \
	VMOVUPS (SI)(AX*1), Y0 \
	VOP     (BX)(AX*1), Y0, Y0 \
	VMOVUPS Y0, (DI)(AX*1) \
	ADDQ    $32, AX \
	DECQ    CX \
	JNZ     loop \
done: \
	VZEROUPPER \
	RET

// MINMAX is the body of fmin/fmax (VOP is VMINPS or VMAXPS) over
// len(dst)&^7 elements. The x86 instruction returns its second source
// where the pair is unordered or tied, so with b as the first source it
// computes the Go loop's "a unless b < a" (b > a for max), a for a NaN b
// and a of a +0/-0 pair. The unordered compare of a with itself then
// blends in b where a is NaN: b's value, and b's payload when both are.
#define MINMAX(VOP) \
	MOVQ dst_base+0(FP), DI \
	MOVQ dst_len+8(FP), CX \
	MOVQ a_base+24(FP), SI \
	MOVQ b_base+48(FP), BX \
	XORQ AX, AX \
	SHRQ $3, CX \
	JZ   done \
	PCALIGN $32 \
loop: \
	VMOVUPS   (SI)(AX*1), Y0 \
	VMOVUPS   (BX)(AX*1), Y1 \
	VOP       Y0, Y1, Y2 \
	VCMPPS    $3, Y0, Y0, Y3 \
	VBLENDVPS Y3, Y1, Y2, Y2 \
	VMOVUPS   Y2, (DI)(AX*1) \
	ADDQ      $32, AX \
	DECQ      CX \
	JNZ       loop \
done: \
	VZEROUPPER \
	RET

// The fused rows (fused.go). FUSED_ENTRY loads dst into DI, the count of
// whole 8-element steps of n into CX and the inputs a..d into R8..R11 (the
// inputs a row does not have are nil and never dereferenced). A body leaves the
// step's 8 results in Y0 for FUSED_EXIT to store. Each body issues its
// row's primitive operations in step order with the row's operand order:
// Go's VOP src2, src1, dst computes src1 OP src2, and src1 is the
// primitive's first operand. Every step loads all operands before the
// store; dst overlaps no input.
#define FUSED_ENTRY \
	MOVQ n+0(FP), CX \
	MOVQ dst+8(FP), DI \
	MOVQ a+16(FP), R8 \
	MOVQ b+24(FP), R9 \
	MOVQ c+32(FP), R10 \
	MOVQ d+40(FP), R11 \
	XORQ AX, AX \
	SHRQ $3, CX \
	JZ   done \
	PCALIGN $32

#define FUSED_EXIT \
	VMOVUPS Y0, (DI)(AX*1) \
	ADDQ    $32, AX \
	DECQ    CX \
	JNZ     loop \
done: \
	VZEROUPPER \
	RET

// SCALED_SQ leaves (c*(a VOP b))^2 in Y0: a, b, c as loaded.
#define SCALED_SQ(VOP) \
	VMOVUPS (R8)(AX*1), Y0 \
	VOP     (R9)(AX*1), Y0, Y0 \
	VMOVUPS (R10)(AX*1), Y1 \
	VMULPS  Y0, Y1, Y0 \
	VMULPS  Y0, Y0, Y0

// ACC_X adds the step's value to x = d as x + Y0.
#define ACC_X \
	VMOVUPS (R11)(AX*1), Y1 \
	VADDPS  Y0, Y1, Y0

// func addAVX2(dst, a, b []float32)
TEXT ·addAVX2(SB), NOSPLIT, $0-72
	LANES(VADDPS)

// func subAVX2(dst, a, b []float32)
TEXT ·subAVX2(SB), NOSPLIT, $0-72
	LANES(VSUBPS)

// func mulAVX2(dst, a, b []float32)
TEXT ·mulAVX2(SB), NOSPLIT, $0-72
	LANES(VMULPS)

// func divAVX2(dst, a, b []float32)
TEXT ·divAVX2(SB), NOSPLIT, $0-72
	LANES(VDIVPS)

// func minAVX2(dst, a, b []float32)
TEXT ·minAVX2(SB), NOSPLIT, $0-72
	MINMAX(VMINPS)

// func maxAVX2(dst, a, b []float32)
TEXT ·maxAVX2(SB), NOSPLIT, $0-72
	MINMAX(VMAXPS)

// func sqrtAVX2(dst, a []float32): VSQRTPS is the correctly rounded
// float32 square root, which float32(math.Sqrt(float64(x))) also is.
TEXT ·sqrtAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	XORQ AX, AX
	SHRQ $3, CX
	JZ   done
	PCALIGN $32
loop:
	VSQRTPS (SI)(AX*1), Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop
done:
	VZEROUPPER
	RET

// func accSqSumAVX2(n uint, dst, a, b, c, d *float32)
TEXT ·accSqSumAVX2(SB), NOSPLIT, $0-48
	FUSED_ENTRY
loop:
	SCALED_SQ(VADDPS)
	ACC_X
	FUSED_EXIT

// func accSqDiffAVX2(n uint, dst, a, b, c, d *float32)
TEXT ·accSqDiffAVX2(SB), NOSPLIT, $0-48
	FUSED_ENTRY
loop:
	SCALED_SQ(VSUBPS)
	ACC_X
	FUSED_EXIT

// func sqSumAVX2(n uint, dst, a, b, c, d *float32)
TEXT ·sqSumAVX2(SB), NOSPLIT, $0-48
	FUSED_ENTRY
loop:
	SCALED_SQ(VADDPS)
	FUSED_EXIT

// func sqDiffAVX2(n uint, dst, a, b, c, d *float32)
TEXT ·sqDiffAVX2(SB), NOSPLIT, $0-48
	FUSED_ENTRY
loop:
	SCALED_SQ(VSUBPS)
	FUSED_EXIT

// func dot2AVX2(n uint, dst, a, b, c, d *float32): a*b + c*d.
TEXT ·dot2AVX2(SB), NOSPLIT, $0-48
	FUSED_ENTRY
loop:
	VMOVUPS (R8)(AX*1), Y0
	VMULPS  (R9)(AX*1), Y0, Y0
	VMOVUPS (R10)(AX*1), Y1
	VMULPS  (R11)(AX*1), Y1, Y1
	VADDPS  Y1, Y0, Y0
	FUSED_EXIT

// func accMulAVX2(n uint, dst, a, b, c, d *float32): c + a*b.
TEXT ·accMulAVX2(SB), NOSPLIT, $0-48
	FUSED_ENTRY
loop:
	VMOVUPS (R8)(AX*1), Y0
	VMULPS  (R9)(AX*1), Y0, Y0
	VMOVUPS (R10)(AX*1), Y1
	VADDPS  Y0, Y1, Y0
	FUSED_EXIT

// func diffRowAVX2(dst, fa, fb, ca, cb []float32)
TEXT ·diffRowAVX2(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ fa_base+24(FP), R8
	MOVQ fb_base+48(FP), R9
	MOVQ ca_base+72(FP), R10
	MOVQ cb_base+96(FP), R11
	XORQ AX, AX
	SHRQ $3, CX
	JZ   done
	PCALIGN $32
loop:
	VMOVUPS (R9)(AX*1), Y0
	VSUBPS  (R8)(AX*1), Y0, Y0  // fb - fa
	VMOVUPS (R11)(AX*1), Y1
	VSUBPS  (R10)(AX*1), Y1, Y1 // cb - ca
	VDIVPS  Y1, Y0, Y0          // (fb - fa) / (cb - ca)
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop
done:
	VZEROUPPER
	RET

// func cpuid(eax, ecx uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eax+0(FP), AX
	MOVL ecx+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
