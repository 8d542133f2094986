package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// GEMM kernel tuning constants. The kernel is cache-blocked over the shared
// K dimension (panels of B stay L1-resident while every row tile consumes
// them) with a register tile in the inner loop: 4x16 under the AVX2
// microkernel sgemm4x16, 2x8 under the SSE microkernel sgemm2x8 or its
// portable twin (see kernel.go for runtime dispatch). Per output element the
// summation order over K is strictly ascending in every code path — serial,
// blocked, parallel, and every kernel — so results are bit-identical
// regardless of tiling, worker count, or selected kernel.
const (
	gemmMR   = 2   // rows of A per SSE/portable register tile
	gemmNR   = 8   // columns of B per SSE/portable register tile
	gemmMR4  = 4   // rows of A per AVX2 register tile
	gemmNR16 = 16  // columns of B per AVX2 register tile
	gemmKC   = 256 // K-panel height kept hot in L1

	// gemmParallelMACs is the m·k·n threshold above which a GEMM fans row
	// panels out across cores; below it (e.g. the 1×K×3 head GEMMs)
	// goroutine overhead would dominate and the serial kernel runs inline.
	gemmParallelMACs = 1 << 18
)

// gemmA is a GEMM's A operand, addressed in place instead of copied into a
// row-major matrix:
//
//	A[i][kk] = data[origin(i) + off[kk]]
//
// A convolution's A is its patch matrix read straight from the (padded)
// HWC input: row i is output pixel (i/outW, i%outW), origin(i) its window
// corner, and off the offsets of the K (channel, kernel row, kernel column)
// elements past it (convA). A plain row-major m×k matrix is cols = 1,
// rowStride = k and a nil off, which stands for the identity: each K panel
// advances the row origins to the panel and reads through the fixed
// gemmIdent table. Every kernel reads A through row pointers plus a panel
// of the table, so one microkernel per family serves both. origin is
// non-decreasing and the table's last entry its largest, so the largest
// address any tile reads is origin(m−1) + off[k−1] (last).
type gemmA struct {
	data []float32
	off  []int32
	rowGeom
}

// gemmIdent is the offset table of a plain row-major A: a panel's row
// pointers already sit at its first column.
var gemmIdent = func() (t [gemmKC]int32) {
	for i := range t {
		t[i] = int32(i)
	}
	return t
}()

// plainA is the row-major matrix with k columns in data.
func plainA(data []float32, k int) gemmA {
	return gemmA{data: data, rowGeom: rowGeom{cols: 1, rowStride: k}}
}

// origin returns the address of row i's first element.
func (g *rowGeom) origin(i int) int {
	return i/g.cols*g.rowStride + i%g.cols*g.colStride
}

// last returns the largest address an m×k product reads.
func (a *gemmA) last(m, k int) int {
	if a.off == nil {
		return a.origin(m-1) + k - 1
	}
	return a.origin(m-1) + int(a.off[k-1])
}

// panel returns the offset table of the K panel [k0, k1) and the shift its
// row origins take.
func (a *gemmA) panel(k0, k1 int) (tab []int32, shift int) {
	if a.off == nil {
		return gemmIdent[:k1-k0], k0
	}
	return a.off[k0:k1], 0
}

// rowCursor walks the origins of consecutive A rows without a division per
// row.
type rowCursor struct {
	o, x                  int // the next row's origin and its column in the output row
	cols, colStride, wrap int
}

// rows returns a cursor at row i whose origins are shifted by shift.
func (g *rowGeom) rows(i, shift int) rowCursor {
	return rowCursor{o: g.origin(i) + shift, x: i % g.cols, cols: g.cols,
		colStride: g.colStride, wrap: g.rowStride - g.cols*g.colStride}
}

// next returns the current row's origin and advances to the next row.
func (r *rowCursor) next() int {
	o := r.o
	r.o += r.colStride
	if r.x++; r.x == r.cols {
		r.x = 0
		r.o += r.wrap
	}
	return o
}

// MatMul computes C[M×N] = A[M×K] · B[K×N] into a fresh tensor. A and B are
// interpreted as 2-D row-major matrices regardless of their declared shapes;
// lengths must match. This is the kernel whose timing internal/gemmini
// prices.
func MatMul(a, b *Tensor, m, k, n int) *Tensor {
	c := New(m, n)
	MatMulInto(c, a, b, m, k, n)
	return c
}

// MatMulInto computes C = A·B into dst, which must hold at least m*n
// elements. Every element of dst[:m*n] is overwritten; no zeroing is
// required beforehand.
func MatMulInto(dst, a, b *Tensor, m, k, n int) {
	if len(a.Data) != m*k || len(b.Data) != k*n {
		panic(fmt.Sprintf("tensor: matmul %dx%d · %dx%d with %d/%d elements",
			m, k, k, n, len(a.Data), len(b.Data)))
	}
	if len(dst.Data) < m*n {
		panic(fmt.Sprintf("tensor: matmul dst holds %d elements, need %d", len(dst.Data), m*n))
	}
	if k == 0 || m*n == 0 {
		clear(dst.Data[:m*n])
		return
	}
	gemm(dst.Data, plainA(a.Data, k), b.Data, m, k, n, tail{})
}

// gemm computes C[m×n] = A·B into cd for m, k, n ≥ 1 and finishes it with
// t (a zero tail leaves the product as it is). Large products are computed
// in parallel across row bands (each goroutine owns disjoint rows of C, so
// per-element summation order — and therefore the bit pattern of the
// result — is identical to the serial kernel). The microkernel is resolved
// once per call from the runtime-dispatched selection (kernel.go);
// in-flight calls are unaffected by concurrent ForceKernel.
func gemm(cd []float32, a gemmA, bd []float32, m, k, n int, t tail) {
	// The asm kernels do not bounds-check. Index the largest address any
	// tile reads, so an operand shorter than its geometry panics here.
	_ = a.data[a.last(m, k)]
	_ = bd[k*n-1]
	kern := ActiveKernel()
	workers := runtime.GOMAXPROCS(0)
	if workers > 1 && m*k*n >= gemmParallelMACs && m >= 2*gemmMR {
		matMulParallel(cd, a, bd, m, k, n, workers, kern, t)
		return
	}
	matMulRows(cd, a, bd, 0, m, k, n, kern, t)
}

// matMulParallel splits the row range into one contiguous band per worker.
// Bands are disjoint, so no synchronization beyond the final join is needed
// and the output is bit-identical to the serial kernel.
func matMulParallel(cd []float32, a gemmA, bd []float32, m, k, n, workers int, kern Kernel, t tail) {
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	base, rem := m/workers, m%workers
	i0 := 0
	for w := 0; w < workers; w++ {
		rows := base
		if w < rem {
			rows++
		}
		i1 := i0 + rows
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulRows(cd, a, bd, lo, hi, k, n, kern, t)
		}(i0, i1)
		i0 = i1
	}
	wg.Wait()
}

// tile2x8 is the 2×8 microkernel signature shared by sgemm2x8 and
// sgemm2x8generic.
type tile2x8 = func(k, n int, a0, a1 *float32, off *int32, b, c0, c1 *float32, acc bool)

// matMulRows computes rows [i0, i1) of C, one gemmKC panel of K at a time:
// the first panel overwrites C (so callers never pre-zero), later ones
// accumulate into it, and once the last panel has summed every row of the
// band, t finishes them in one pass on the same kernel family. Each panel
// runs on the selected microkernel family, whose every fragment keeps the
// same k-ascending per-element order, so the result is bit-identical
// across families.
func matMulRows(cd []float32, a gemmA, bd []float32, i0, i1, k, n int, kern Kernel, t tail) {
	for k0 := 0; k0 < k; k0 += gemmKC {
		tab, shift := a.panel(k0, min(k0+gemmKC, k))
		rows := a.rows(i0, shift)
		bp, acc := bd[k0*n:], k0 > 0
		switch kern {
		case KernelAVX2:
			panel4x16(cd, a.data, &rows, tab, bp, i0, i1, n, acc)
		case KernelNoAsm:
			panel2x8(cd, a.data, &rows, tab, bp, i0, i1, n, acc, sgemm2x8generic)
		default:
			panel2x8(cd, a.data, &rows, tab, bp, i0, i1, n, acc, sgemm2x8)
		}
	}
	t.apply(cd, nil, 0, i0, i1, n, kern)
}

// panel4x16 computes rows [i, i1) of C for one K panel with the 4x16 AVX2
// register tile: A rows at rows' origins in ad, read through tab; bp the
// panel's first B row. Column remainders step down to 8-wide SSE tiles and
// then scalar; the row remainder goes to panel2x8.
func panel4x16(cd, ad []float32, rows *rowCursor, tab []int32, bp []float32, i, i1, n int, acc bool) {
	kc := len(tab)
	for ; i+gemmMR4 <= i1; i += gemmMR4 {
		r0, r1 := ad[rows.next():], ad[rows.next():]
		r2, r3 := ad[rows.next():], ad[rows.next():]
		c := cd[i*n : (i+4)*n : (i+4)*n]
		j := 0
		for ; j+gemmNR16 <= n; j += gemmNR16 {
			sgemm4x16(kc, n, &r0[0], &r1[0], &r2[0], &r3[0], &tab[0],
				&bp[j], &c[j], &c[n+j], &c[2*n+j], &c[3*n+j], acc)
		}
		for ; j+gemmNR <= n; j += gemmNR {
			sgemm2x8(kc, n, &r0[0], &r1[0], &tab[0], &bp[j], &c[j], &c[n+j], acc)
			sgemm2x8(kc, n, &r2[0], &r3[0], &tab[0], &bp[j], &c[2*n+j], &c[3*n+j], acc)
		}
		if j < n {
			tail2(c[:2*n], r0, r1, tab, bp, j, n, acc)
			tail2(c[2*n:], r2, r3, tab, bp, j, n, acc)
		}
	}
	panel2x8(cd, ad, rows, tab, bp, i, i1, n, acc, sgemm2x8)
}

// panel2x8 computes rows [i, i1) of C for one K panel, as panel4x16 does,
// with 2x8 register tiles through the given microkernel (SIMD asm or its
// portable twin), scalar column remainders, and a last odd row in tile1.
func panel2x8(cd, ad []float32, rows *rowCursor, tab []int32, bp []float32, i, i1, n int, acc bool, tile tile2x8) {
	kc := len(tab)
	for ; i+gemmMR <= i1; i += gemmMR {
		r0, r1 := ad[rows.next():], ad[rows.next():]
		c := cd[i*n : (i+2)*n : (i+2)*n]
		j := 0
		for ; j+gemmNR <= n; j += gemmNR {
			tile(kc, n, &r0[0], &r1[0], &tab[0], &bp[j], &c[j], &c[n+j], acc)
		}
		if j < n {
			tail2(c, r0, r1, tab, bp, j, n, acc)
		}
	}
	if i < i1 {
		tile1(cd[i*n:(i+1)*n], ad[rows.next():], tab, bp, n, acc)
	}
}

// tail2 computes columns [j, n) of the two C rows in c (2·n elements) for
// one K panel in scalar loops, in the kernels' per-element order.
func tail2(c, r0, r1 []float32, tab []int32, bp []float32, j, n int, acc bool) {
	c0, c1 := c[:n:n], c[n:2*n:2*n]
	for ; j < n; j++ {
		var s0, s1 float32
		if acc {
			s0, s1 = c0[j], c1[j]
		}
		p := j
		for _, o := range tab {
			bv := bp[p]
			p += n
			s0 += float32(r0[o] * bv)
			s1 += float32(r1[o] * bv)
		}
		c0[j], c1[j] = s0, s1
	}
}

// tile1 computes a single row of C for one K panel (the remainder of the
// row stripes, and small-M GEMMs like the classifier heads): A row r read
// through tab, bp the panel's first B row.
func tile1(crow, r []float32, tab []int32, bp []float32, n int, acc bool) {
	j := 0
	for ; j+4 <= n; j += 4 {
		var s0, s1, s2, s3 float32
		if acc {
			s0, s1, s2, s3 = crow[j], crow[j+1], crow[j+2], crow[j+3]
		}
		p := j
		for _, o := range tab {
			bq := bp[p : p+4 : p+4]
			p += n
			av := r[o]
			s0 += float32(av * bq[0])
			s1 += float32(av * bq[1])
			s2 += float32(av * bq[2])
			s3 += float32(av * bq[3])
		}
		crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		var s float32
		if acc {
			s = crow[j]
		}
		p := j
		for _, o := range tab {
			s += float32(r[o] * bp[p])
			p += n
		}
		crow[j] = s
	}
}
