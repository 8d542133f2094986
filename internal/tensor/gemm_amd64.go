//go:build amd64 && !noasm

package tensor

// sgemm2x8 computes one 2-row × 8-column tile of C over a K panel:
//
//	c0[0:8] (+)= Σ_kk a0[off[kk]] · b[kk·n : kk·n+8]
//	c1[0:8] (+)= Σ_kk a1[off[kk]] · b[kk·n : kk·n+8]
//
// for kk in [0, k). a0/a1 point at the two A rows' origins and off at the
// panel's offset table (gemmA), b at the panel's first B row offset to the
// tile's column, c0/c1 at the tile's two C rows. n is the row stride of B
// in elements; k must be ≥ 1. The kernel does not bounds-check: its Go
// caller has indexed the largest A address beforehand (gemm). When acc is
// false the tile overwrites C, otherwise it accumulates into it (the C
// values are loaded before the K loop, so per-element summation order stays
// strictly k-ascending across panels — results are bit-identical to the
// scalar kernel, which performs the same IEEE-754 single ops per lane).
//
//go:noescape
func sgemm2x8(k, n int, a0, a1 *float32, off *int32, b, c0, c1 *float32, acc bool)

// sgemm4x16 is the AVX2 4-row × 16-column twin of sgemm2x8: same contract,
// wider register tile. It uses separate VMULPS+VADDPS (never FMA) so its
// float32 results remain bit-identical to the scalar and SSE kernels.
//
//go:noescape
func sgemm4x16(k, n int, a0, a1, a2, a3 *float32, off *int32, b, c0, c1, c2, c3 *float32, acc bool)

// i8gemm4x16 computes one 4-row × 16-column tile of the int8 GEMM exactly:
//
//	c_r[0:16] = Σ_p a_r[off[p]]·B[2p][0:16] + a_r[off[p]+1]·B[2p+1][0:16]
//
// for r in [0, 4) and p in [0, pairs): a_r point at the four A rows'
// origins and off at the pair offset table (i8A), b at one PackI8 panel,
// c_r at c + r·ldc. pairs must be ≥ 1. The tile overwrites C (no
// accumulate mode: int8 products are not K-blocked), and does not
// bounds-check: its Go caller has indexed the largest A address beforehand
// (matMulI8).
//
//go:noescape
func i8gemm4x16(pairs int, a0, a1, a2, a3 *int8, off *int32, b *int16, c *int32, ldc int)

// tailAVX2 applies a conv tail (tail.mode's steps, in tail.scalar's order)
// to the first w columns of rows rows of an n-column product, 8 at a time
// (w a positive multiple of 8): see tail.apply for the operands.
//
//go:noescape
func tailAVX2(c *float32, acc *int32, res, vec *float32, d float32, rows, n, w, mode int)

// tailSSE is tailAVX2 4 columns at a time in SSE2.
//
//go:noescape
func tailSSE(c *float32, acc *int32, res, vec *float32, d float32, rows, n, w, mode int)

const gemmHasAsm = true

// cpuid executes the CPUID instruction (leaf eaxArg, subleaf ecxArg).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

// cpuHasAVX2 reports AVX2 usability: the CPU must advertise AVX+AVX2+FMA
// and the OS must have enabled XMM/YMM state saving (OSXSAVE + XCR0[2:1]).
// FMA is required only as a feature-level sanity check (every AVX2 part has
// it); the float32 kernel itself never issues fused ops — see sgemm4x16.
var cpuHasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	const fma = 1 << 12
	if ecx1&osxsave == 0 || ecx1&avx == 0 || ecx1&fma == 0 {
		return false
	}
	// XCR0 bits 1 (SSE state) and 2 (AVX state) must both be OS-enabled.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
