//go:build amd64

#include "textflag.h"

// AVX-512 kernel for keyed normal draws (keyed.go). It follows the lane rule
// of gemm_amd64.s: each of the 16 lanes carries exactly one element's
// computation, in the portable loop's order, with VMULPD/VADDPD and never
// FMA. The ziggurat's 128-entry kn and wn tables live in Z16–Z31 and are
// looked up with two-table permutes plus two levels of blends, no gathers.

// func cpuHasAVX512() bool
//
// CPUID leaf 7 must exist; CPUID.1:ECX must report OSXSAVE (bit 27); XGETBV
// must confirm the OS saves XMM, YMM, opmask, ZMM_Hi256 and Hi16_ZMM state
// (XCR0 bits 1, 2, 5, 6, 7); CPUID.(7,0):EBX must report AVX512F (bit 16)
// and AVX512DQ (bit 17).
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x08000000, CX
	JZ   no512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x00030000, BX
	CMPL BX, $0x00030000
	JNE  no512
	MOVB $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET

// MIX64 is SplitMix64's output function on eight lanes: z ^= z>>30,
// z *= M1, z ^= z>>27, z *= M2, z ^= z>>31. M1 and M2 sit in Z8 and Z9.
#define MIX64(z, t) \
	VPSRLQ  $30, z, t; \
	VPXORQ  t, z, z;   \
	VPMULLQ Z8, z, z;  \
	VPSRLQ  $27, z, t; \
	VPXORQ  t, z, z;   \
	VPMULLQ Z9, z, z;  \
	VPSRLQ  $31, z, t; \
	VPXORQ  t, z, z

// LOOKUP sets out to the 128-entry table t0..t7 (16 dwords each) at the
// index in the low 7 bits of Z6's dwords: each two-table permute reads 32
// entries by bits 0–4, then K2 (bit 5) and K3 (bit 6) pick among the four.
#define LOOKUP(t0, t1, t2, t3, t4, t5, t6, t7, out) \
	VMOVDQA64 Z6, out;          \
	VPERMI2D  t1, t0, out;      \
	VMOVDQA64 Z6, Z13;          \
	VPERMI2D  t3, t2, Z13;      \
	VMOVDQA64 Z6, Z14;          \
	VPERMI2D  t5, t4, Z14;      \
	VMOVDQA64 Z6, Z15;          \
	VPERMI2D  t7, t6, Z15;      \
	VPBLENDMD Z13, out, K2, out; \
	VPBLENDMD Z15, Z14, K2, Z14; \
	VPBLENDMD Z14, out, K3, out

// func normalKeyedAVX512(dst, offset *float64, n int, ctr *[16]uint64, std float64, rej *[32]uint16)
//
// Per 16-element group: z = mix64(counter) in two 8-lane halves; j = the low
// 32 bits of each z, packed into Z6; kn[j&0x7F] and wn[j&0x7F] looked up;
// accept where uint32(|j|) < kn (VPABSD leaves MinInt32 as 2^31, which the
// portable (j^m)−m does too); x = float64(j)·float64(wn); then std·x, plus
// offset, plus dst, stored under the accept mask. The complement of the mask
// goes to rej.
//
// Register map: DI dst · SI offset (0: none) · CX elements left · R8 rej ·
// Z0/Z1 counters · Z8 M1 · Z9 M2 · Z10 16·γ · Z11 std · Z16–Z23 kn ·
// Z24–Z31 wn · K1 accept · K2/K3 index bits 5/6.
TEXT ·normalKeyedAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ offset+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ ctr+24(FP), AX
	MOVQ rej+40(FP), R8

	VMOVDQU64    (AX), Z0
	VMOVDQU64    64(AX), Z1
	VBROADCASTSD std+32(FP), Z11
	MOVQ         $0xBF58476D1CE4E5B9, AX
	VPBROADCASTQ AX, Z8
	MOVQ         $0x94D049BB133111EB, AX
	VPBROADCASTQ AX, Z9
	MOVQ         $0x9E3779B97F4A7C15, AX
	SHLQ         $4, AX
	VPBROADCASTQ AX, Z10

	VMOVDQU32 ·kn+0(SB), Z16
	VMOVDQU32 ·kn+64(SB), Z17
	VMOVDQU32 ·kn+128(SB), Z18
	VMOVDQU32 ·kn+192(SB), Z19
	VMOVDQU32 ·kn+256(SB), Z20
	VMOVDQU32 ·kn+320(SB), Z21
	VMOVDQU32 ·kn+384(SB), Z22
	VMOVDQU32 ·kn+448(SB), Z23
	VMOVDQU32 ·wn+0(SB), Z24
	VMOVDQU32 ·wn+64(SB), Z25
	VMOVDQU32 ·wn+128(SB), Z26
	VMOVDQU32 ·wn+192(SB), Z27
	VMOVDQU32 ·wn+256(SB), Z28
	VMOVDQU32 ·wn+320(SB), Z29
	VMOVDQU32 ·wn+384(SB), Z30
	VMOVDQU32 ·wn+448(SB), Z31

loop:
	VMOVDQA64 Z0, Z2
	VMOVDQA64 Z1, Z3
	VPADDQ    Z10, Z0, Z0
	VPADDQ    Z10, Z1, Z1
	MIX64(Z2, Z4)
	MIX64(Z3, Z5)

	// j: the low dword of each lane, 16 to a register.
	VPMOVQD      Z2, Y6
	VPMOVQD      Z3, Y7
	VINSERTI64X4 $1, Y7, Z6, Z6

	VPSLLD   $26, Z6, Z7
	VPMOVD2M Z7, K2
	VPSLLD   $25, Z6, Z7
	VPMOVD2M Z7, K3

	LOOKUP(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z12)
	VPABSD  Z6, Z7
	VPCMPUD $1, Z12, Z7, K1
	LOOKUP(Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31, Z12)

	// x = float64(j)·float64(wn), then std·x.
	VCVTDQ2PD     Y6, Z2
	VEXTRACTI64X4 $1, Z6, Y7
	VCVTDQ2PD     Y7, Z3
	VCVTPS2PD     Y12, Z4
	VEXTRACTF64X4 $1, Z12, Y7
	VCVTPS2PD     Y7, Z5
	VMULPD        Z4, Z2, Z2
	VMULPD        Z5, Z3, Z3
	VMULPD        Z11, Z2, Z2
	VMULPD        Z11, Z3, Z3

	TESTQ  SI, SI
	JZ     nooffset
	VADDPD (SI), Z2, Z2
	VADDPD 64(SI), Z3, Z3
	ADDQ   $128, SI

nooffset:
	VADDPD   (DI), Z2, Z2
	VADDPD   64(DI), Z3, Z3
	KSHIFTRW $8, K1, K4
	VMOVUPD  Z2, K1, (DI)
	VMOVUPD  Z3, K4, 64(DI)
	KNOTW    K1, K5
	KMOVW    K5, AX
	MOVW     AX, (R8)

	ADDQ $2, R8
	ADDQ $128, DI
	SUBQ $16, CX
	JNZ  loop

	VZEROUPPER
	RET
