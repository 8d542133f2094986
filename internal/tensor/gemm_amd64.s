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

// func tailSSE(c *float32, acc *int32, res, vec *float32, d float32, rows, n, w, mode int)
//
// tailAVX2 in SSE2, 4 columns at a time (w a positive multiple of 4): the
// same steps in the same order, each a separately rounded MULPS or ADDPS
// with x as the first operand, and the ReLU the same integer mask
// (PADDL, PCMPGTL, PANDN). Operands are loaded with MOVUPS first: legacy
// SSE arithmetic faults on unaligned memory operands.
TEXT ·tailSSE(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ acc+8(FP), SI
	MOVQ res+16(FP), R8
	MOVQ vec+24(FP), R9
	MOVSS d+32(FP), X15
	SHUFPS $0x00, X15, X15
	MOVQ rows+40(FP), CX
	MOVQ n+48(FP), DX
	MOVQ w+56(FP), R13
	MOVQ mode+64(FP), R12

	SHLQ $2, DX             // row stride in bytes
	SHLQ $2, R13            // vector columns in bytes
	LEAQ (R9)(DX*1), R10    // scale
	LEAQ (R10)(DX*1), R11   // shift
	PCMPEQL X14, X14        // -1 in every lane
	MOVL $0xff800000, AX
	MOVQ AX, X13
	PSHUFD $0x00, X13, X13  // 0xff800000, the bits of -Inf

srow:
	XORQ BX, BX
scol:
	TESTQ $1, R12
	JZ    sf32
	MOVUPS   (SI)(BX*1), X0
	CVTPL2PS X0, X0
	MULPS    X15, X0
	JMP      sbias
sf32:
	MOVUPS (DI)(BX*1), X0
sbias:
	MOVUPS (R9)(BX*1), X1
	ADDPS  X1, X0
	TESTQ  $2, R12
	JZ     sres
	MOVUPS (R10)(BX*1), X1
	MULPS  X1, X0
	MOVUPS (R11)(BX*1), X1
	ADDPS  X1, X0
sres:
	TESTQ  $4, R12
	JZ     srelu
	MOVUPS (R8)(BX*1), X1
	ADDPS  X1, X0
srelu:
	TESTQ   $8, R12
	JZ      sstore
	MOVAPS  X0, X1
	PADDL   X14, X1         // u - 1
	MOVAPS  X13, X2
	PCMPGTL X1, X2          // 0xff800000 > u - 1: negative, not NaN
	PANDN   X0, X2
	MOVAPS  X2, X0
sstore:
	MOVUPS X0, (DI)(BX*1)
	ADDQ   $16, BX
	CMPQ   BX, R13
	JB     scol

	ADDQ DX, DI
	ADDQ DX, SI
	ADDQ DX, R8
	DECQ CX
	JNZ  srow
	RET
