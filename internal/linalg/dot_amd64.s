//go:build amd64 && !purego

#include "textflag.h"

// func laneDotSSE2(a, b []float64) float64
//
// SSE2 implementation of the canonical 8-lane dot product. Four packed
// accumulators X0..X3 hold lanes (0,1), (2,3), (4,5), (6,7): each loop
// iteration consumes eight elements, so lane r receives exactly the terms at
// indices ≡ r (mod 8) in ascending order — the same assignment as
// laneDotGeneric. The reduction X0+=X2, X1+=X3, X0+=X1, low+high realizes
// the fixed tree ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)), and the scalar tail
// is added serially afterwards, so the result is bit-identical to the
// portable fallback.
TEXT ·laneDotSSE2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-16, DX
	CMPQ  DX, $0
	JE    blocks8

	// Main loop: two 8-element groups per iteration. Both groups feed the
	// same accumulator registers with the same index-mod-8 lane assignment,
	// in ascending order — identical bits to the 8-wide loop, half the
	// loop-control overhead.
loop16:
	MOVUPD (SI)(AX*8), X4
	MOVUPD (DI)(AX*8), X5
	MULPD  X5, X4
	ADDPD  X4, X0
	MOVUPD 16(SI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	MULPD  X5, X4
	ADDPD  X4, X1
	MOVUPD 32(SI)(AX*8), X4
	MOVUPD 32(DI)(AX*8), X5
	MULPD  X5, X4
	ADDPD  X4, X2
	MOVUPD 48(SI)(AX*8), X4
	MOVUPD 48(DI)(AX*8), X5
	MULPD  X5, X4
	ADDPD  X4, X3
	MOVUPD 64(SI)(AX*8), X4
	MOVUPD 64(DI)(AX*8), X5
	MULPD  X5, X4
	ADDPD  X4, X0
	MOVUPD 80(SI)(AX*8), X4
	MOVUPD 80(DI)(AX*8), X5
	MULPD  X5, X4
	ADDPD  X4, X1
	MOVUPD 96(SI)(AX*8), X4
	MOVUPD 96(DI)(AX*8), X5
	MULPD  X5, X4
	ADDPD  X4, X2
	MOVUPD 112(SI)(AX*8), X4
	MOVUPD 112(DI)(AX*8), X5
	MULPD  X5, X4
	ADDPD  X4, X3
	ADDQ   $16, AX
	CMPQ   AX, DX
	JL     loop16

blocks8:
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  tail

	// At most one more 8-element group ((len mod 16) >= 8).
	MOVUPD (SI)(AX*8), X4
	MOVUPD (DI)(AX*8), X5
	MULPD  X5, X4
	ADDPD  X4, X0
	MOVUPD 16(SI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	MULPD  X5, X4
	ADDPD  X4, X1
	MOVUPD 32(SI)(AX*8), X4
	MOVUPD 32(DI)(AX*8), X5
	MULPD  X5, X4
	ADDPD  X4, X2
	MOVUPD 48(SI)(AX*8), X4
	MOVUPD 48(DI)(AX*8), X5
	MULPD  X5, X4
	ADDPD  X4, X3
	ADDQ   $8, AX

tail:
	// Fixed reduction tree, then low+high of the surviving register.
	ADDPD    X2, X0
	ADDPD    X3, X1
	ADDPD    X1, X0
	MOVAPD   X0, X1
	UNPCKHPD X1, X1
	ADDSD    X1, X0

	CMPQ AX, CX
	JGE  done

tailloop:
	MOVSD (SI)(AX*8), X4
	MULSD (DI)(AX*8), X4
	ADDSD X4, X0
	INCQ  AX
	CMPQ  AX, CX
	JL    tailloop

done:
	MOVSD X0, ret+48(FP)
	RET

// func laneDotAVX(a, b []float64) float64
//
// AVX implementation of the canonical 8-lane dot product. Two 256-bit
// accumulators hold lanes 0-3 (Y0) and 4-7 (Y1); VADDPD Y1 into Y0 yields
// (s0+s4, s1+s5, s2+s6, s3+s7), the 128-bit halves add to
// ((s0+s4)+(s2+s6), (s1+s5)+(s3+s7)) and low+high completes the same
// reduction tree as laneDotSSE2/laneDotGeneric. Every multiply and add
// rounds one lane exactly like the scalar operation (no FMA), so the result
// is bit-identical to the other implementations. The tail uses VEX scalar
// ops to avoid SSE/AVX transition stalls; VZEROUPPER runs before RET.
TEXT ·laneDotAVX(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-16, DX
	CMPQ   DX, $0
	JE     avxblocks8

	// Two 8-element groups per iteration; both feed Y0/Y1 with the same
	// index-mod-8 lane assignment in ascending order.
avxloop16:
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DI)(AX*8), Y3
	VMULPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y3
	VMULPD  Y3, Y2, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD 64(SI)(AX*8), Y2
	VMOVUPD 64(DI)(AX*8), Y3
	VMULPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD 96(SI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	VMULPD  Y3, Y2, Y2
	VADDPD  Y2, Y1, Y1
	ADDQ    $16, AX
	CMPQ    AX, DX
	JL      avxloop16

avxblocks8:
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  avxreduce

	// At most one more 8-element group ((len mod 16) >= 8).
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DI)(AX*8), Y3
	VMULPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y3
	VMULPD  Y3, Y2, Y2
	VADDPD  Y2, Y1, Y1
	ADDQ    $8, AX

avxreduce:
	// Fixed reduction tree: (s0+s4, s1+s5, s2+s6, s3+s7), halves, low+high.
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0

	CMPQ AX, CX
	JGE  avxdone

avxtailloop:
	VMOVSD (SI)(AX*8), X2
	VMULSD (DI)(AX*8), X2, X2
	VADDSD X2, X0, X0
	INCQ   AX
	CMPQ   AX, CX
	JL     avxtailloop

avxdone:
	VMOVSD     X0, ret+48(FP)
	VZEROUPPER
	RET

// func laneDot4AVX(a0, a1, a2, a3, x []float64, out *[4]float64)
//
// Four rows at once: out[r] = laneDot(a_r[:len(x)], x), each row with the
// lane assignment and reduction of laneDotAVX (Y0/Y1 hold row 0's lanes
// 0-3/4-7, Y2/Y3 row 1's, and so on). The rows share each load of x, which
// is what makes it faster than four laneDotAVX calls; every row still sees
// its own terms in its own order, so each result is bit-identical to
// laneDotGeneric. The serial tails of the four rows run interleaved in one
// loop, each row adding its terms in ascending order.
TEXT ·laneDot4AVX(SB), NOSPLIT, $0-128
	MOVQ   a0_base+0(FP), R8
	MOVQ   a1_base+24(FP), R9
	MOVQ   a2_base+48(FP), R10
	MOVQ   a3_base+72(FP), R11
	MOVQ   x_base+96(FP), SI
	MOVQ   x_len+104(FP), CX
	MOVQ   out+120(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-8, BX

rows4loop8:
	CMPQ    AX, BX
	JGE     rows4reduce
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD 32(SI)(AX*8), Y9
	VMULPD  (R8)(AX*8), Y8, Y10
	VADDPD  Y10, Y0, Y0
	VMULPD  32(R8)(AX*8), Y9, Y11
	VADDPD  Y11, Y1, Y1
	VMULPD  (R9)(AX*8), Y8, Y12
	VADDPD  Y12, Y2, Y2
	VMULPD  32(R9)(AX*8), Y9, Y13
	VADDPD  Y13, Y3, Y3
	VMULPD  (R10)(AX*8), Y8, Y10
	VADDPD  Y10, Y4, Y4
	VMULPD  32(R10)(AX*8), Y9, Y11
	VADDPD  Y11, Y5, Y5
	VMULPD  (R11)(AX*8), Y8, Y12
	VADDPD  Y12, Y6, Y6
	VMULPD  32(R11)(AX*8), Y9, Y13
	VADDPD  Y13, Y7, Y7
	ADDQ    $8, AX
	JMP     rows4loop8

rows4reduce:
	// Per row: (s0+s4, s1+s5, s2+s6, s3+s7), halves, low+high.
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0
	VADDPD       Y3, Y2, Y2
	VEXTRACTF128 $1, Y2, X3
	VADDPD       X3, X2, X2
	VUNPCKHPD    X2, X2, X3
	VADDSD       X3, X2, X2
	VADDPD       Y5, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPD       X5, X4, X4
	VUNPCKHPD    X4, X4, X5
	VADDSD       X5, X4, X4
	VADDPD       Y7, Y6, Y6
	VEXTRACTF128 $1, Y6, X7
	VADDPD       X7, X6, X6
	VUNPCKHPD    X6, X6, X7
	VADDSD       X7, X6, X6

rows4tail:
	CMPQ   AX, CX
	JGE    rows4done
	VMOVSD (SI)(AX*8), X8
	VMULSD (R8)(AX*8), X8, X9
	VADDSD X9, X0, X0
	VMULSD (R9)(AX*8), X8, X10
	VADDSD X10, X2, X2
	VMULSD (R10)(AX*8), X8, X11
	VADDSD X11, X4, X4
	VMULSD (R11)(AX*8), X8, X12
	VADDSD X12, X6, X6
	INCQ   AX
	JMP    rows4tail

rows4done:
	VMOVSD     X0, (DI)
	VMOVSD     X2, 8(DI)
	VMOVSD     X4, 16(DI)
	VMOVSD     X6, 24(DI)
	VZEROUPPER
	RET

// func cpuHasAVX() bool
//
// CPUID leaf 1: ECX bit 27 (OSXSAVE) and bit 28 (AVX); then XGETBV(0) bits
// 1-2 confirm the OS saves xmm/ymm state. Both are required before calling
// laneDotAVX.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	MOVL CX, BX
	ANDL $(1<<27 | 1<<28), BX
	CMPL BX, $(1<<27 | 1<<28)
	JNE  noavx
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func addSquares(dst, src []float64)
//
// dst[j] += src[j]*src[j], packed two columns at a time. Each dst[j] is an
// independent accumulator, so the packing cannot change any rounding — the
// result is bit-identical to addSquaresGeneric.
TEXT ·addSquares(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ dst_len+8(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ BX, $0
	JE   sqtail

sqloop:
	MOVUPD (SI)(AX*8), X0
	MULPD  X0, X0
	MOVUPD (DI)(AX*8), X1
	ADDPD  X0, X1
	MOVUPD X1, (DI)(AX*8)
	MOVUPD 16(SI)(AX*8), X2
	MULPD  X2, X2
	MOVUPD 16(DI)(AX*8), X3
	ADDPD  X2, X3
	MOVUPD X3, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, BX
	JL     sqloop

sqtail:
	CMPQ AX, CX
	JGE  sqdone

sqtailloop:
	MOVSD (SI)(AX*8), X0
	MULSD X0, X0
	ADDSD (DI)(AX*8), X0
	MOVSD X0, (DI)(AX*8)
	INCQ  AX
	CMPQ  AX, CX
	JL    sqtailloop

sqdone:
	RET
