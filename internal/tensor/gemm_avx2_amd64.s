//go:build amd64 && !noasm

#include "textflag.h"

// func sgemm4x16(k, n int, a0, a1, a2, a3 *float32, off *int32, b, c0, c1, c2, c3 *float32, acc bool)
//
// AVX2 microkernel: 4 rows × 16 columns of C held in Y0-Y7 across the K
// loop (two 8-lane accumulators per row). Per iteration: one load of the
// offset off[kk], two 8-wide loads of a B row, one broadcast of a_r[off[kk]]
// per A row, and a VMULPS+VADDPS pair per accumulator (64 MACs). The
// multiply and add are deliberately separate instructions rather than a
// fused VFMADD: FMA's single rounding would change result bits, and the
// repo's contract is bit-identical float32 output across every kernel
// (scalar, SSE, AVX2). Lane-wise VADDPS applies the same IEEE
// single-precision add as the scalar kernel in the same k-ascending order,
// so the result bits are identical. The C row pointers are read from the
// frame only around the loop, leaving the loop its nine registers.
TEXT ·sgemm4x16(SB), NOSPLIT, $0-97
	MOVQ k+0(FP), CX
	MOVQ n+8(FP), DX
	MOVQ a0+16(FP), SI
	MOVQ a1+24(FP), DI
	MOVQ a2+32(FP), R10
	MOVQ a3+40(FP), R11
	MOVQ off+48(FP), R12
	MOVQ b+56(FP), BX

	SHLQ $2, DX             // B row stride in bytes

	VXORPS Y0, Y0, Y0       // c0[0:8]
	VXORPS Y1, Y1, Y1       // c0[8:16]
	VXORPS Y2, Y2, Y2       // c1[0:8]
	VXORPS Y3, Y3, Y3       // c1[8:16]
	VXORPS Y4, Y4, Y4       // c2[0:8]
	VXORPS Y5, Y5, Y5       // c2[8:16]
	VXORPS Y6, Y6, Y6       // c3[0:8]
	VXORPS Y7, Y7, Y7       // c3[8:16]
	MOVBLZX acc+96(FP), AX
	TESTB AL, AL
	JZ   kloop
	MOVQ c0+64(FP), R8      // accumulate mode: start from current C
	VMOVUPS (R8), Y0
	VMOVUPS 32(R8), Y1
	MOVQ c1+72(FP), R8
	VMOVUPS (R8), Y2
	VMOVUPS 32(R8), Y3
	MOVQ c2+80(FP), R8
	VMOVUPS (R8), Y4
	VMOVUPS 32(R8), Y5
	MOVQ c3+88(FP), R8
	VMOVUPS (R8), Y6
	VMOVUPS 32(R8), Y7

kloop:
	MOVLQSX (R12), AX       // off[kk]
	VMOVUPS (BX), Y8        // b[kk·n+j : +8]
	VMOVUPS 32(BX), Y9      // b[kk·n+j+8 : +16]

	VBROADCASTSS (SI)(AX*4), Y10  // splat a0[off[kk]]
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y0, Y0
	VMULPS Y9, Y10, Y11
	VADDPS Y11, Y1, Y1

	VBROADCASTSS (DI)(AX*4), Y10  // splat a1[off[kk]]
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y2, Y2
	VMULPS Y9, Y10, Y11
	VADDPS Y11, Y3, Y3

	VBROADCASTSS (R10)(AX*4), Y10 // splat a2[off[kk]]
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y4, Y4
	VMULPS Y9, Y10, Y11
	VADDPS Y11, Y5, Y5

	VBROADCASTSS (R11)(AX*4), Y10 // splat a3[off[kk]]
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y6, Y6
	VMULPS Y9, Y10, Y11
	VADDPS Y11, Y7, Y7

	ADDQ $4, R12
	ADDQ DX, BX
	DECQ CX
	JNZ  kloop

	MOVQ c0+64(FP), R8
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	MOVQ c1+72(FP), R8
	VMOVUPS Y2, (R8)
	VMOVUPS Y3, 32(R8)
	MOVQ c2+80(FP), R8
	VMOVUPS Y4, (R8)
	VMOVUPS Y5, 32(R8)
	MOVQ c3+88(FP), R8
	VMOVUPS Y6, (R8)
	VMOVUPS Y7, 32(R8)
	VZEROUPPER
	RET

// I8ROW multiplies one A row's broadcast int16 pair in Y10 against the two
// halves of a B pair row (Y8: columns 0-7, Y9: columns 8-15) and adds the
// exact int32 two-term sums into that row's accumulators lo and hi.
#define I8ROW(lo, hi) \
	VPMADDWD Y8, Y10, Y11 \
	VPADDD   Y11, lo, lo \
	VPMADDWD Y9, Y10, Y11 \
	VPADDD   Y11, hi, hi

// func i8gemm4x16(pairs int, a0, a1, a2, a3 *int8, off *int32, b *int16, c *int32, ldc int)
//
// AVX2 int8 microkernel: C[0:4][0:16] = A[0:4] · B[0:2·pairs][0:16] with
// exact int32 sums. Row r's K pair p is the two bytes at a_r + off[p] (two
// channels of one input pixel); b points at one PackI8 panel (pair rows of
// 32 int16, columns interleaved); c at C's first tile row, ldc elements
// apart. Per pair, VPBROADCASTW reads a row's two bytes and VPMOVSXBW
// sign-extends them to eight (a[2p], a[2p+1]) int16 pairs, and VPMADDWD
// forms a[2p]·b[2p][j] + a[2p+1]·b[2p+1][j] in each int32 lane:
// |sum| ≤ 2·127², so no lane saturates (VPMADDUBSW would). K is always
// even: a convolution's odd channel count carries a zero channel, and
// MatMulI8Into widens an odd-K A with a zero column. The kernel reads only
// the pairs the table names and the panel, and overwrites C.
TEXT ·i8gemm4x16(SB), NOSPLIT, $0-72
	MOVQ pairs+0(FP), CX
	MOVQ a0+8(FP), SI
	MOVQ a1+16(FP), DI
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ off+40(FP), R12
	MOVQ b+48(FP), BX
	MOVQ c+56(FP), R8
	MOVQ ldc+64(FP), R9

	SHLQ $2, R9             // C row stride in bytes

	VPXOR Y0, Y0, Y0        // c0[0:8]
	VPXOR Y1, Y1, Y1        // c0[8:16]
	VPXOR Y2, Y2, Y2        // c1[0:8]
	VPXOR Y3, Y3, Y3        // c1[8:16]
	VPXOR Y4, Y4, Y4        // c2[0:8]
	VPXOR Y5, Y5, Y5        // c2[8:16]
	VPXOR Y6, Y6, Y6        // c3[0:8]
	VPXOR Y7, Y7, Y7        // c3[8:16]

pairloop:
	MOVLQSX (R12), AX       // off[p]
	VMOVDQU (BX), Y8        // pair p, columns 0-7
	VMOVDQU 32(BX), Y9      // pair p, columns 8-15

	VPBROADCASTW (SI)(AX*1), X10  // a0[off[p]], a0[off[p]+1]
	VPMOVSXBW X10, Y10
	I8ROW(Y0, Y1)
	VPBROADCASTW (DI)(AX*1), X10  // a1
	VPMOVSXBW X10, Y10
	I8ROW(Y2, Y3)
	VPBROADCASTW (R10)(AX*1), X10 // a2
	VPMOVSXBW X10, Y10
	I8ROW(Y4, Y5)
	VPBROADCASTW (R11)(AX*1), X10 // a3
	VPMOVSXBW X10, Y10
	I8ROW(Y6, Y7)

	ADDQ $4, R12
	ADDQ $64, BX
	DECQ CX
	JNZ  pairloop

	VMOVDQU Y0, (R8)
	VMOVDQU Y1, 32(R8)
	ADDQ    R9, R8
	VMOVDQU Y2, (R8)
	VMOVDQU Y3, 32(R8)
	ADDQ    R9, R8
	VMOVDQU Y4, (R8)
	VMOVDQU Y5, 32(R8)
	ADDQ    R9, R8
	VMOVDQU Y6, (R8)
	VMOVDQU Y7, 32(R8)
	VZEROUPPER
	RET

// func tailAVX2(c *float32, acc *int32, res, vec *float32, d float32, rows, n, w, mode int)
//
// The conv tail over rows × w columns of an n-column product, 8 at a time
// (w a positive multiple of 8). Per 8 values x of a row: x = c[j:j+8], or
// float32(acc[j:j+8])·d (mode&1); x += bias[j:j+8]; with mode&2,
// x = x·scale[j:j+8] + shift[j:j+8]; with mode&4, x += res[j:j+8]; with
// mode&8 the ReLU: with u the bits of x, u &^= ((u−1) <signed 0xff800000),
// reluPass's mask, which zeroes exactly the negative non-NaN values (a
// VMAXPS against zero would flush -0 and NaN); then c[j:j+8] = x. Each
// step is one separately rounded VMULPS or VADDPS with x as the first
// operand, as the portable tail computes it. bias, scale and shift are
// vec, vec+n and vec+2n.
TEXT ·tailAVX2(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ acc+8(FP), SI
	MOVQ res+16(FP), R8
	MOVQ vec+24(FP), R9
	VBROADCASTSS d+32(FP), Y15
	MOVQ rows+40(FP), CX
	MOVQ n+48(FP), DX
	MOVQ w+56(FP), R13
	MOVQ mode+64(FP), R12

	SHLQ $2, DX             // row stride in bytes
	SHLQ $2, R13            // vector columns in bytes
	LEAQ (R9)(DX*1), R10    // scale
	LEAQ (R10)(DX*1), R11   // shift
	VPCMPEQD Y14, Y14, Y14  // -1 in every lane
	MOVL $0xff800000, AX
	MOVQ AX, X13
	VPBROADCASTD X13, Y13   // 0xff800000, the bits of -Inf

trow:
	XORQ BX, BX
tcol:
	TESTQ $1, R12
	JZ    tf32
	VCVTDQ2PS (SI)(BX*1), Y0
	VMULPS    Y15, Y0, Y0
	JMP       tbias
tf32:
	VMOVUPS (DI)(BX*1), Y0
tbias:
	VADDPS (R9)(BX*1), Y0, Y0
	TESTQ  $2, R12
	JZ     tres
	VMULPS (R10)(BX*1), Y0, Y0
	VADDPS (R11)(BX*1), Y0, Y0
tres:
	TESTQ  $4, R12
	JZ     trelu
	VADDPS (R8)(BX*1), Y0, Y0
trelu:
	TESTQ    $8, R12
	JZ       tstore
	VPADDD   Y14, Y0, Y1    // u - 1
	VPCMPGTD Y1, Y13, Y1    // 0xff800000 > u - 1: negative, not NaN
	VPANDN   Y0, Y1, Y0
tstore:
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, R13
	JB      tcol

	ADDQ DX, DI
	ADDQ DX, SI
	ADDQ DX, R8
	DECQ CX
	JNZ  trow
	VZEROUPPER
	RET
