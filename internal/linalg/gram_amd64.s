//go:build amd64 && !purego

#include "textflag.h"

// The exponential below repeats, lane for lane, the AVX+FMA path of the Go
// standard library's math.Exp on amd64 (src/math/exp_amd64.s, Copyright
// 2010 The Go Authors, BSD-style licence; its method and constants come
// from Naoki Shibata's public-domain SLEEF). Every constant is spelled
// exactly as there, and every instruction is the packed form of the scalar
// one it replaces, so a lane rounds exactly like math.Exp does. Only
// arguments inside [-708, 0] take this path: there the scalar code never
// branches (finite, no overflow, 2^k is a normal number). Blocks with any
// other lane are handed back to Go, which calls math.Exp.

// Each constant is stored four times, one 32-byte row per constant, so it
// can be a packed memory operand.
#define CONST4(off, val) \
	DATA gramexp<>+(off+0)(SB)/8, val; \
	DATA gramexp<>+(off+8)(SB)/8, val; \
	DATA gramexp<>+(off+16)(SB)/8, val; \
	DATA gramexp<>+(off+24)(SB)/8, val

CONST4(0, $1.4426950408889634073599246810018920)        // LOG2E
CONST4(32, $0.69314718055966295651160180568695068359375) // LN2U
CONST4(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
CONST4(96, $0.0625)
CONST4(128, $2.4801587301587301587e-5)
CONST4(160, $1.9841269841269841270e-4)
CONST4(192, $1.3888888888888888889e-3)
CONST4(224, $8.3333333333333333333e-3)
CONST4(256, $4.1666666666666666667e-2)
CONST4(288, $1.6666666666666666667e-1)
CONST4(320, $0.5)
CONST4(352, $1.0)
CONST4(384, $2.0)
CONST4(416, $1023)    // exponent bias, int64 lanes
CONST4(448, $-708.0)  // lower end of the branch-free window
GLOBL gramexp<>(SB), RODATA, $480

// SAFE_MASK sets R12 to the 4-bit lane mask of -708 <= Y0 <= 0 (ordered
// compares, so NaN lanes are unsafe). Needs Y13 = 0, Y14 = -708.
#define SAFE_MASK \
	VCMPPD    $0x1D, Y14, Y0, Y5; \
	VCMPPD    $0x12, Y13, Y0, Y6; \
	VANDPD    Y6, Y5, Y5; \
	VMOVMSKPD Y5, R12

// EXP4 replaces Y0 by exp(Y0) for four lanes inside the window, in the
// order of math.Exp's avxfma path: k = round(x·LOG2E) (CVTSD2SL), the two
// fused reductions by LN2U and LN2L, ×1/16, the fused Horner chain, the
// four (x+2)·x squarings (the last fused with +1), and the 2^k scale,
// built from (k+1023)<<52 like the scalar ldexp step. Clobbers Y1-Y4.
#define EXP4 \
	VMULPD       gramexp<>+0(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD gramexp<>+32(SB), Y1, Y0; \
	VFNMADD231PD gramexp<>+64(SB), Y1, Y0; \
	VMULPD       gramexp<>+96(SB), Y0, Y0; \
	VMOVUPD      gramexp<>+128(SB), Y3; \
	VFMADD213PD  gramexp<>+160(SB), Y0, Y3; \
	VFMADD213PD  gramexp<>+192(SB), Y0, Y3; \
	VFMADD213PD  gramexp<>+224(SB), Y0, Y3; \
	VFMADD213PD  gramexp<>+256(SB), Y0, Y3; \
	VFMADD213PD  gramexp<>+288(SB), Y0, Y3; \
	VFMADD213PD  gramexp<>+320(SB), Y0, Y3; \
	VFMADD213PD  gramexp<>+352(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       gramexp<>+384(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       gramexp<>+384(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       gramexp<>+384(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       gramexp<>+384(SB), Y0, Y3; \
	VFMADD213PD  gramexp<>+352(SB), Y3, Y0; \
	VPMOVSXDQ    X2, Y4; \
	VPADDQ       gramexp<>+416(SB), Y4, Y4; \
	VPSLLQ       $52, Y4, Y4; \
	VMULPD       Y4, Y0, Y0

// func expBlocksFMA(dst, src []float64) int
//
// dst[j] = exp(src[j]) for the 4-blocks of src from the start, stopping at
// the first block with a lane outside [-708, 0]. Returns the number of
// elements written (a multiple of 4); len(dst) must be at least len(src).
TEXT ·expBlocksFMA(SB), NOSPLIT, $0-56
	MOVQ   dst_base+0(FP), DI
	MOVQ   src_base+24(FP), SI
	MOVQ   src_len+32(FP), CX
	ANDQ   $-4, CX
	XORQ   AX, AX
	VXORPD Y13, Y13, Y13
	VMOVUPD gramexp<>+448(SB), Y14

exploop:
	CMPQ    AX, CX
	JGE     expdone
	VMOVUPD (SI)(AX*8), Y0
	SAFE_MASK
	CMPQ    R12, $15
	JNE     expdone
	EXP4
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     exploop

expdone:
	MOVQ       AX, ret+48(FP)
	VZEROUPPER
	RET

// func gramRowFMA(row, vi, xt []float64, stride, j, jend int, negGamma float64) int
//
// RBF Gram entries row[j:jend] (jend-j a multiple of 4) of the point vi
// against the columns of the d×stride transposed feature block xt
// (d = len(vi), xt[k*stride+c] is dimension k of point c). Each lane
// computes its column's squared distance in dist2Lanes' order: four
// accumulators over the dimensions ≡ 0,1,2,3 (mod 4), folded as
// (d0+d2)+(d1+d3), then the last d mod 4 dimensions added one by one; the
// difference, square and sum each round separately (no FMA). The distance
// is scaled by negGamma and exponentiated with EXP4. At the first block
// with an exponent outside the window the exponents themselves are stored
// and the block's column index is returned; otherwise jend is returned.
TEXT ·gramRowFMA(SB), NOSPLIT, $0-112
	MOVQ         row_base+0(FP), DI
	MOVQ         vi_base+24(FP), SI
	MOVQ         vi_len+32(FP), CX
	MOVQ         xt_base+48(FP), R8
	MOVQ         stride+72(FP), R9
	SHLQ         $3, R9
	MOVQ         j+80(FP), AX
	MOVQ         jend+88(FP), BX
	VBROADCASTSD negGamma+96(FP), Y15
	VXORPD       Y13, Y13, Y13
	VMOVUPD      gramexp<>+448(SB), Y14
	MOVQ         CX, DX
	ANDQ         $-4, DX

block:
	CMPQ   AX, BX
	JGE    gramdone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (R8)(AX*8), R11
	XORQ   R10, R10

dims4:
	CMPQ         R10, DX
	JGE          fold
	VBROADCASTSD (SI)(R10*8), Y4
	VSUBPD       (R11), Y4, Y4
	VMULPD       Y4, Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         R9, R11
	VBROADCASTSD 8(SI)(R10*8), Y5
	VSUBPD       (R11), Y5, Y5
	VMULPD       Y5, Y5, Y5
	VADDPD       Y5, Y1, Y1
	ADDQ         R9, R11
	VBROADCASTSD 16(SI)(R10*8), Y6
	VSUBPD       (R11), Y6, Y6
	VMULPD       Y6, Y6, Y6
	VADDPD       Y6, Y2, Y2
	ADDQ         R9, R11
	VBROADCASTSD 24(SI)(R10*8), Y7
	VSUBPD       (R11), Y7, Y7
	VMULPD       Y7, Y7, Y7
	VADDPD       Y7, Y3, Y3
	ADDQ         R9, R11
	ADDQ         $4, R10
	JMP          dims4

fold:
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VADDPD Y1, Y0, Y0

taildims:
	CMPQ         R10, CX
	JGE          scale
	VBROADCASTSD (SI)(R10*8), Y4
	VSUBPD       (R11), Y4, Y4
	VMULPD       Y4, Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         R9, R11
	INCQ         R10
	JMP          taildims

scale:
	VMULPD  Y15, Y0, Y0
	SAFE_MASK
	CMPQ    R12, $15
	JNE     unsafe
	EXP4
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     block

unsafe:
	VMOVUPD Y0, (DI)(AX*8)

gramdone:
	MOVQ       AX, ret+104(FP)
	VZEROUPPER
	RET

// func cpuHasAVX2FMA() bool
//
// CPUID leaf 1: ECX bits 12 (FMA), 27 (OSXSAVE) and 28 (AVX); XGETBV(0)
// bits 1-2 (the OS saves xmm and ymm state); CPUID leaf 7: EBX bit 5
// (AVX2). All are required before calling the kernels above.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JL   nofma
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<12 | 1<<27 | 1<<28), CX
	CMPL CX, $(1<<12 | 1<<27 | 1<<28)
	JNE  nofma
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  nofma
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   nofma
	MOVB $1, ret+0(FP)
	RET

nofma:
	MOVB $0, ret+0(FP)
	RET
