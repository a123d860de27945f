//go:build amd64

#include "textflag.h"

// AVX-512 kernels for the dense training step: the batched GEMMs, the
// momentum step and the ReLU mask. They keep the lane rule of gemm_amd64.s:
// each 512-bit lane carries exactly one output element's computation, in the
// portable loop's order, with VMULPD/VADDPD/VSUBPD and never FMA. Column and
// element tails run under a K-mask; a masked-off lane is neither loaded (so
// it cannot fault) nor stored.

// LANEMASK sets K to the low n bits (n in [0, 8] in reg; CX clobbered).
#define LANEMASK(reg, K) \
	MOVQ  reg, CX; \
	MOVL  $1, reg; \
	SHLQ  CX, reg; \
	DECQ  reg;     \
	KMOVW reg, K

// ROWPTR points reg at w row min(i+j, last): DI i · AX last · CX row
// stride (bytes) · SI w.
#define ROWPTR(j, reg) \
	LEAQ    j(DI), reg;  \
	CMPQ    reg, AX;     \
	CMOVQGT AX, reg;     \
	IMULQ   CX, reg;     \
	ADDQ    SI, reg

// MACROW advances accumulator acc by w row ptr's element k times the eight
// lanes in Z16, through the product register tmp.
#define MACROW(ptr, tmp, acc) \
	VMULPD.BCST (ptr)(CX*8), Z16, tmp; \
	VADDPD      tmp, acc, acc

// func mulMatPack512(w, xpack, dst, bias *float64, k, rows, dstStride int)
//
// One lane-packed batch tile (8 batch rows) against every row of w. A pass
// takes eight w rows: accumulator Zj, lane l holds dst[l][i+j], the
// ascending-k dot product of w row i+j with batch row l. The pass then
// transposes the eight accumulators so that register l holds dst row l's
// eight columns, adds the bias (when non-nil) after the chain, and stores
// under a mask of the rows the pass really had. The last pass of a w whose
// row count is not a multiple of eight repeats its last row in the spare
// accumulators; their columns are masked off.
//
// Register map, k loop: R8–R13/BX/DX w row ptrs · CX k · AX k bound ·
// SI xpack walker · DI i · Z16 xpack lanes · Z0–Z7 accumulators ·
// Z24–Z31 products. After it: K1 column mask · Z30 bias.
TEXT ·mulMatPack512(SB), NOSPLIT, $0-56
	XORQ DI, DI

pass:
	MOVQ rows+40(FP), AX
	DECQ AX
	MOVQ k+32(FP), CX
	SHLQ $3, CX
	MOVQ w+0(FP), SI
	ROWPTR(0, R8)
	ROWPTR(1, R9)
	ROWPTR(2, R10)
	ROWPTR(3, R11)
	ROWPTR(4, R12)
	ROWPTR(5, R13)
	ROWPTR(6, BX)
	ROWPTR(7, DX)

	MOVQ   xpack+8(FP), SI
	MOVQ   k+32(FP), AX
	XORQ   CX, CX
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7

kloop:
	VMOVUPD (SI), Z16
	MACROW(R8, Z24, Z0)
	MACROW(R9, Z25, Z1)
	MACROW(R10, Z26, Z2)
	MACROW(R11, Z27, Z3)
	MACROW(R12, Z28, Z4)
	MACROW(R13, Z29, Z5)
	MACROW(BX, Z30, Z6)
	MACROW(DX, Z31, Z7)
	ADDQ    $64, SI
	INCQ    CX
	CMPQ    CX, AX
	JLT     kloop

	// 8×8 transpose: Zj lane l → Zl lane j.
	VUNPCKLPD  Z1, Z0, Z8
	VUNPCKHPD  Z1, Z0, Z9
	VUNPCKLPD  Z3, Z2, Z10
	VUNPCKHPD  Z3, Z2, Z11
	VUNPCKLPD  Z5, Z4, Z12
	VUNPCKHPD  Z5, Z4, Z13
	VUNPCKLPD  Z7, Z6, Z14
	VUNPCKHPD  Z7, Z6, Z15
	VSHUFF64X2 $0x88, Z10, Z8, Z16
	VSHUFF64X2 $0xDD, Z10, Z8, Z17
	VSHUFF64X2 $0x88, Z11, Z9, Z18
	VSHUFF64X2 $0xDD, Z11, Z9, Z19
	VSHUFF64X2 $0x88, Z14, Z12, Z20
	VSHUFF64X2 $0xDD, Z14, Z12, Z21
	VSHUFF64X2 $0x88, Z15, Z13, Z22
	VSHUFF64X2 $0xDD, Z15, Z13, Z23
	VSHUFF64X2 $0x88, Z20, Z16, Z0
	VSHUFF64X2 $0xDD, Z20, Z16, Z4
	VSHUFF64X2 $0x88, Z21, Z17, Z2
	VSHUFF64X2 $0xDD, Z21, Z17, Z6
	VSHUFF64X2 $0x88, Z22, Z18, Z1
	VSHUFF64X2 $0xDD, Z22, Z18, Z5
	VSHUFF64X2 $0x88, Z23, Z19, Z3
	VSHUFF64X2 $0xDD, Z23, Z19, Z7

	// K1: the min(8, rows−i) columns this pass owns.
	MOVQ rows+40(FP), AX
	SUBQ DI, AX
	MOVL $8, CX
	CMPQ AX, CX
	CMOVQGT CX, AX
	LANEMASK(AX, K1)

	MOVQ  bias+24(FP), R10
	TESTQ R10, R10
	JZ    store
	VMOVUPD.Z (R10)(DI*8), K1, Z30
	VADDPD    Z30, Z0, Z0
	VADDPD    Z30, Z1, Z1
	VADDPD    Z30, Z2, Z2
	VADDPD    Z30, Z3, Z3
	VADDPD    Z30, Z4, Z4
	VADDPD    Z30, Z5, Z5
	VADDPD    Z30, Z6, Z6
	VADDPD    Z30, Z7, Z7

store:
	// DX = &dst[0][i], R8 = row stride (bytes), R9 = 3 rows.
	MOVQ    dst+16(FP), DX
	LEAQ    (DX)(DI*8), DX
	MOVQ    dstStride+48(FP), R8
	SHLQ    $3, R8
	LEAQ    (R8)(R8*2), R9
	VMOVUPD Z0, K1, (DX)
	VMOVUPD Z1, K1, (DX)(R8*1)
	VMOVUPD Z2, K1, (DX)(R8*2)
	VMOVUPD Z3, K1, (DX)(R9*1)
	LEAQ    (DX)(R8*4), DX
	VMOVUPD Z4, K1, (DX)
	VMOVUPD Z5, K1, (DX)(R8*1)
	VMOVUPD Z6, K1, (DX)(R8*2)
	VMOVUPD Z7, K1, (DX)(R9*1)

	ADDQ $8, DI
	CMPQ DI, rows+40(FP)
	JLT  pass

	VZEROUPPER
	RET

// func addOuterRow512(dst, x, y *float64, batch, cols, xStride, yStride int, alpha float64)
//
// One dst row of the batched outer-product accumulation: dst[j] +=
// (alpha·x[b·xStride]) · y[b·yStride+j] for b ascending, j in [0, cols). Up
// to 32 columns ride in Z0–Z3 across the whole batch loop (lane = column
// chain); the last register of the last pass covers the column tail under
// K1. batch and cols must be at least 1.
//
// Register map: DI dst · SI x column base · DX y base · R8 batch · R9 cols ·
// R10 x stride (bytes) · R11 y stride (bytes) · AX j · BX &dst[j] ·
// CX x walker · R12 y walker · R13 b counter · Z31 alpha · Z4 alpha·x_b ·
// Z5–Z8 products.
TEXT ·addOuterRow512(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVQ         batch+24(FP), R8
	MOVQ         cols+32(FP), R9
	MOVQ         xStride+40(FP), R10
	MOVQ         yStride+48(FP), R11
	SHLQ         $3, R10
	SHLQ         $3, R11
	VBROADCASTSD alpha+56(FP), Z31
	XORQ         AX, AX

jloop:
	// BX = columns left; at 32 or more, four full registers.
	MOVQ R9, BX
	SUBQ AX, BX
	JLE  outerdone
	CMPQ BX, $32
	JGE  full4

	// Fewer than 32 left: R12 = registers (1…4), K1 = the last one's lanes.
	LEAQ 7(BX), R12
	SHRQ $3, R12
	LEAQ -1(R12), R13
	SHLQ $3, R13
	SUBQ R13, BX
	LANEMASK(BX, K1)
	CMPQ R12, $2
	JLT  w1
	JEQ  w2
	CMPQ R12, $3
	JEQ  w3
	JMP  w4

full4:
	MOVL  $0xFF, BX
	KMOVW BX, K1

w4:
	LEAQ      (DI)(AX*8), BX
	VMOVUPD   (BX), Z0
	VMOVUPD   64(BX), Z1
	VMOVUPD   128(BX), Z2
	VMOVUPD.Z 192(BX), K1, Z3
	MOVQ      SI, CX
	LEAQ      (DX)(AX*8), R12
	MOVQ      R8, R13

b4:
	VMULPD.BCST (CX), Z31, Z4
	VMULPD      (R12), Z4, Z5
	VADDPD      Z5, Z0, Z0
	VMULPD      64(R12), Z4, Z6
	VADDPD      Z6, Z1, Z1
	VMULPD      128(R12), Z4, Z7
	VADDPD      Z7, Z2, Z2
	VMOVUPD.Z   192(R12), K1, Z8
	VMULPD      Z8, Z4, Z8
	VADDPD      Z8, Z3, Z3
	ADDQ        R10, CX
	ADDQ        R11, R12
	DECQ        R13
	JNZ         b4

	VMOVUPD Z0, (BX)
	VMOVUPD Z1, 64(BX)
	VMOVUPD Z2, 128(BX)
	VMOVUPD Z3, K1, 192(BX)
	ADDQ    $32, AX
	JMP     jloop

w3:
	LEAQ      (DI)(AX*8), BX
	VMOVUPD   (BX), Z0
	VMOVUPD   64(BX), Z1
	VMOVUPD.Z 128(BX), K1, Z2
	MOVQ      SI, CX
	LEAQ      (DX)(AX*8), R12
	MOVQ      R8, R13

b3:
	VMULPD.BCST (CX), Z31, Z4
	VMULPD      (R12), Z4, Z5
	VADDPD      Z5, Z0, Z0
	VMULPD      64(R12), Z4, Z6
	VADDPD      Z6, Z1, Z1
	VMOVUPD.Z   128(R12), K1, Z7
	VMULPD      Z7, Z4, Z7
	VADDPD      Z7, Z2, Z2
	ADDQ        R10, CX
	ADDQ        R11, R12
	DECQ        R13
	JNZ         b3

	VMOVUPD Z0, (BX)
	VMOVUPD Z1, 64(BX)
	VMOVUPD Z2, K1, 128(BX)
	JMP     outerdone

w2:
	LEAQ      (DI)(AX*8), BX
	VMOVUPD   (BX), Z0
	VMOVUPD.Z 64(BX), K1, Z1
	MOVQ      SI, CX
	LEAQ      (DX)(AX*8), R12
	MOVQ      R8, R13

b2:
	VMULPD.BCST (CX), Z31, Z4
	VMULPD      (R12), Z4, Z5
	VADDPD      Z5, Z0, Z0
	VMOVUPD.Z   64(R12), K1, Z6
	VMULPD      Z6, Z4, Z6
	VADDPD      Z6, Z1, Z1
	ADDQ        R10, CX
	ADDQ        R11, R12
	DECQ        R13
	JNZ         b2

	VMOVUPD Z0, (BX)
	VMOVUPD Z1, K1, 64(BX)
	JMP     outerdone

w1:
	LEAQ      (DI)(AX*8), BX
	VMOVUPD.Z (BX), K1, Z0
	MOVQ      SI, CX
	LEAQ      (DX)(AX*8), R12
	MOVQ      R8, R13

b1:
	VMULPD.BCST (CX), Z31, Z4
	VMOVUPD.Z   (R12), K1, Z5
	VMULPD      Z5, Z4, Z5
	VADDPD      Z5, Z0, Z0
	ADDQ        R10, CX
	ADDQ        R11, R12
	DECQ        R13
	JNZ         b1

	VMOVUPD Z0, K1, (BX)

outerdone:
	VZEROUPPER
	RET

// func momentum512(p, v, grad *float64, n int, mu, lr float64)
//
// The SGDM step over n elements: v = mu·v + g, then p = p − lr·v, eight
// lanes at a time, the n%8 tail under K1.
//
// Register map: DI p · SI v · DX g · CX full groups · AX tail count ·
// Z30 mu · Z31 lr.
TEXT ·momentum512(SB), NOSPLIT, $0-48
	MOVQ         p+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         grad+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD mu+32(FP), Z30
	VBROADCASTSD lr+40(FP), Z31
	MOVQ         CX, AX
	ANDQ         $7, AX
	SHRQ         $3, CX
	JZ           momtail

momloop:
	VMULPD  (SI), Z30, Z0
	VADDPD  (DX), Z0, Z0
	VMOVUPD Z0, (SI)
	VMULPD  Z0, Z31, Z1
	VMOVUPD (DI), Z2
	VSUBPD  Z1, Z2, Z2
	VMOVUPD Z2, (DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, DX
	DECQ    CX
	JNZ     momloop

momtail:
	TESTQ AX, AX
	JZ    momdone
	LANEMASK(AX, K1)
	VMOVUPD.Z (SI), K1, Z3
	VMULPD    Z3, Z30, Z0
	VMOVUPD.Z (DX), K1, Z4
	VADDPD    Z4, Z0, Z0
	VMOVUPD   Z0, K1, (SI)
	VMULPD    Z0, Z31, Z1
	VMOVUPD.Z (DI), K1, Z2
	VSUBPD    Z1, Z2, Z2
	VMOVUPD   Z2, K1, (DI)

momdone:
	VZEROUPPER
	RET

// func maskPositive512(dst, v, by *float64, n int)
//
// dst[i] = v[i] where by[i] > 0, else +0, eight lanes at a time, the n%8
// tail under K2. The compare is ordered (GT_OQ), so ±0, negatives and NaN
// all select +0.
//
// Register map: DI dst · SI v · DX by · CX full groups · AX tail count ·
// Z31 zero · K1 keep mask.
TEXT ·maskPositive512(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   v+8(FP), SI
	MOVQ   by+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPD Z31, Z31, Z31
	MOVQ   CX, AX
	ANDQ   $7, AX
	SHRQ   $3, CX
	JZ     masktail

maskloop:
	VMOVUPD   (DX), Z1
	VCMPPD    $0x1E, Z31, Z1, K1
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD   Z0, (DI)
	ADDQ      $64, DI
	ADDQ      $64, SI
	ADDQ      $64, DX
	DECQ      CX
	JNZ       maskloop

masktail:
	TESTQ AX, AX
	JZ    maskdone
	LANEMASK(AX, K2)
	VMOVUPD.Z (DX), K2, Z1
	VCMPPD    $0x1E, Z31, Z1, K1
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD   Z0, K2, (DI)

maskdone:
	VZEROUPPER
	RET
