package tensor

import "unsafe"

// sgemm2x8generic is the portable 2-row × 8-column microkernel, compiled on
// every platform. It is the KernelNoAsm dispatch target and the body behind
// sgemm2x8 on platforms without assembly. It performs the exact same
// IEEE-754 single-precision operations per output element in the same
// k-ascending order as the SSE and AVX2 kernels, so every kernel produces
// identical bits. Like them it reads A row r's element kk at
// a_r[off[kk]] without a bounds check: gemm has indexed the largest A
// address before any kernel runs.
//
// The tile runs as four 1×4 passes (a row and a 4-column half each), so a
// pass's k loop keeps every value in registers: the compiler schedules a
// loop's adds after all its multiplies, and amd64 gives Go 15 float
// registers. One 2×8 pass moved 60 values to or from the stack. Every
// product is rounded before its add (float32(...)), so no target fuses
// them into one multiply-add.
func sgemm2x8generic(k, n int, a0, a1 *float32, off *int32, b, c0, c1 *float32, acc bool) {
	b4 := (*float32)(unsafe.Add(unsafe.Pointer(b), 16))
	sgemm1x4generic(k, n, a0, off, b, c0, acc)
	sgemm1x4generic(k, n, a0, off, b4, (*float32)(unsafe.Add(unsafe.Pointer(c0), 16)), acc)
	sgemm1x4generic(k, n, a1, off, b, c1, acc)
	sgemm1x4generic(k, n, a1, off, b4, (*float32)(unsafe.Add(unsafe.Pointer(c1), 16)), acc)
}

// sgemm1x4generic is one row and four columns of a 2×8 tile.
func sgemm1x4generic(k, n int, a *float32, off *int32, b, c *float32, acc bool) {
	r := unsafe.Pointer(a)
	bs := unsafe.Slice(b, (k-1)*n+4)
	cs := unsafe.Slice(c, 4)
	var s0, s1, s2, s3 float32
	if acc {
		s0, s1, s2, s3 = cs[0], cs[1], cs[2], cs[3]
	}
	p := 0
	for _, o := range unsafe.Slice(off, k) {
		bq := bs[p : p+4 : p+4]
		p += n
		av := *(*float32)(unsafe.Add(r, uintptr(o)*4))
		s0 += float32(av * bq[0])
		s1 += float32(av * bq[1])
		s2 += float32(av * bq[2])
		s3 += float32(av * bq[3])
	}
	cs[0], cs[1], cs[2], cs[3] = s0, s1, s2, s3
}
