//go:build amd64

#include "textflag.h"

// func dotLanesAVX(a0, a1, a2, a3, x *float64, n int, out *[16]float64)
//
// Four lane-packed blocks against one x: block g's accumulator Yg holds four
// dot products, lane l the ascending-i chain Σ a_g[4i+l]·x[i]. Each x[i] is
// broadcast once for all sixteen; VMULPD then VADDPD, never FMA, so every
// lane rounds as the portable loop does.
//
// Register map: R8–R11 block walkers · SI x · CX elements left · DI out ·
// Y0–Y3 accumulators · Y4 broadcast x[i].
TEXT ·dotLanesAVX(SB), NOSPLIT, $0-56
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ x+32(FP), SI
	MOVQ n+40(FP), CX
	MOVQ out+48(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

loop:
	VBROADCASTSD (SI), Y4
	VMULPD       (R8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       (R9), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       (R10), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       (R11), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, SI
	ADDQ         $32, R8
	ADDQ         $32, R9
	ADDQ         $32, R10
	ADDQ         $32, R11
	DECQ         CX
	JNZ          loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET
