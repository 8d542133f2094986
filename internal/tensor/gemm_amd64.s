//go:build amd64 && !noasm

#include "textflag.h"

// func sgemm2x8(k, n int, a0, a1 *float32, off *int32, b, c0, c1 *float32, acc bool)
//
// SSE microkernel: 2 rows × 8 columns of C held in X0-X3 across the K loop.
// Per iteration: one load of the offset off[kk], two 4-wide loads of a B
// row, splats of a0[off[kk]] and a1[off[kk]], four MULPS+ADDPS pairs (16
// MACs). Lane-wise ADDPS applies the same IEEE single-precision add as the
// scalar kernel, in the same k-ascending order, so the result bits are
// identical.
TEXT ·sgemm2x8(SB), NOSPLIT, $0-65
	MOVQ k+0(FP), CX
	MOVQ n+8(FP), DX
	MOVQ a0+16(FP), SI
	MOVQ a1+24(FP), DI
	MOVQ off+32(FP), R10
	MOVQ b+40(FP), BX
	MOVQ c0+48(FP), R8
	MOVQ c1+56(FP), R9

	SHLQ $2, DX             // B row stride in bytes

	XORPS X0, X0            // c0[0:4]
	XORPS X1, X1            // c0[4:8]
	XORPS X2, X2            // c1[0:4]
	XORPS X3, X3            // c1[4:8]
	MOVBLZX acc+64(FP), AX
	TESTB AL, AL
	JZ   kloop
	MOVUPS (R8), X0         // accumulate mode: start from current C
	MOVUPS 16(R8), X1
	MOVUPS (R9), X2
	MOVUPS 16(R9), X3

kloop:
	MOVLQSX (R10), AX       // off[kk]
	MOVUPS (BX), X4         // b[kk·n+j : +4]
	MOVUPS 16(BX), X5       // b[kk·n+j+4 : +8]
	MOVSS  (SI)(AX*4), X6
	SHUFPS $0x00, X6, X6    // splat a0[off[kk]]
	MOVSS  (DI)(AX*4), X7
	SHUFPS $0x00, X7, X7    // splat a1[off[kk]]

	MOVAPS X4, X8
	MULPS  X6, X8
	ADDPS  X8, X0
	MOVAPS X5, X9
	MULPS  X6, X9
	ADDPS  X9, X1
	MULPS  X7, X4
	ADDPS  X4, X2
	MULPS  X7, X5
	ADDPS  X5, X3

	ADDQ $4, R10
	ADDQ DX, BX
	DECQ CX
	JNZ  kloop

	MOVUPS X0, (R8)
	MOVUPS X1, 16(R8)
	MOVUPS X2, (R9)
	MOVUPS X3, 16(R9)
	RET
