//go:build !amd64 || noasm

package tensor

// sgemm2x8 on platforms without assembly delegates to the portable kernel;
// same IEEE ops in the same order, so asm and fallback are bit-identical.
func sgemm2x8(k, n int, a0, a1 *float32, off *int32, b, c0, c1 *float32, acc bool) {
	sgemm2x8generic(k, n, a0, a1, off, b, c0, c1, acc)
}

// sgemm4x16 is unreachable without assembly: KernelAVX2 is never supported
// (KernelSupported gates on gemmHasAsm), so dispatch cannot select it.
func sgemm4x16(k, n int, a0, a1, a2, a3 *float32, off *int32, b, c0, c1, c2, c3 *float32, acc bool) {
	panic("tensor: AVX2 kernel dispatched without assembly support")
}

// i8gemm4x16 is unreachable without assembly, for the same reason.
func i8gemm4x16(pairs int, a0, a1, a2, a3 *int8, off *int32, b *int16, c *int32, ldc int) {
	panic("tensor: AVX2 int8 kernel dispatched without assembly support")
}

// tailAVX2 and tailSSE are unreachable without assembly, for the same
// reason.
func tailAVX2(c *float32, acc *int32, res, vec *float32, d float32, rows, n, w, mode int) {
	panic("tensor: AVX2 conv tail dispatched without assembly support")
}
func tailSSE(c *float32, acc *int32, res, vec *float32, d float32, rows, n, w, mode int) {
	panic("tensor: SSE conv tail dispatched without assembly support")
}

const gemmHasAsm = false

// cpuHasAVX2 is false without the assembly kernels, regardless of the CPU.
const cpuHasAVX2 = false
