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
func sgemm2x8generic(k, n int, a0, a1 *float32, off *int32, b, c0, c1 *float32, acc bool) {
	offs := unsafe.Slice(off, k)
	r0, r1 := unsafe.Pointer(a0), unsafe.Pointer(a1)
	bs := unsafe.Slice(b, (k-1)*n+8)
	cs0 := unsafe.Slice(c0, 8)
	cs1 := unsafe.Slice(c1, 8)

	var s00, s01, s02, s03, s04, s05, s06, s07 float32
	var s10, s11, s12, s13, s14, s15, s16, s17 float32
	if acc {
		s00, s01, s02, s03 = cs0[0], cs0[1], cs0[2], cs0[3]
		s04, s05, s06, s07 = cs0[4], cs0[5], cs0[6], cs0[7]
		s10, s11, s12, s13 = cs1[0], cs1[1], cs1[2], cs1[3]
		s14, s15, s16, s17 = cs1[4], cs1[5], cs1[6], cs1[7]
	}
	p := 0
	for _, o := range offs {
		bq := bs[p : p+8 : p+8]
		p += n
		av := *(*float32)(unsafe.Add(r0, uintptr(o)*4))
		s00 += av * bq[0]
		s01 += av * bq[1]
		s02 += av * bq[2]
		s03 += av * bq[3]
		s04 += av * bq[4]
		s05 += av * bq[5]
		s06 += av * bq[6]
		s07 += av * bq[7]
		av = *(*float32)(unsafe.Add(r1, uintptr(o)*4))
		s10 += av * bq[0]
		s11 += av * bq[1]
		s12 += av * bq[2]
		s13 += av * bq[3]
		s14 += av * bq[4]
		s15 += av * bq[5]
		s16 += av * bq[6]
		s17 += av * bq[7]
	}
	cs0[0], cs0[1], cs0[2], cs0[3] = s00, s01, s02, s03
	cs0[4], cs0[5], cs0[6], cs0[7] = s04, s05, s06, s07
	cs1[0], cs1[1], cs1[2], cs1[3] = s10, s11, s12, s13
	cs1[4], cs1[5], cs1[6], cs1[7] = s14, s15, s16, s17
}
