package tensor

import "fmt"

// Int8 quantization substrate for Gemmini's native low-precision mode.
//
// The scheme is per-tensor symmetric: q = clamp(round(x / scale), -127, 127)
// with zero-point 0, so a convolution's padding and its zero pad channel
// quantize to 0 and the int8 GEMM needs no zero-point correction terms.
// Accumulation is exact int32 (worst case |q| ≤ 127 so K up to ~2^17
// cannot overflow 127·127·K), which makes the quantized path
// kernel-invariant by construction: integer sums
// have one representable answer, so the AVX2 kernel (VPMADDWD on
// sign-extended int16 pairs, never the saturating VPMADDUBSW) and the
// portable kernel that the noasm and SSE selections run produce exactly
// equal int8-path results. The float32 bit-exactness contract of matmul.go
// therefore extends to int8 as exact equality rather than per-kernel
// tolerance.
//
// The GEMM's B operand (the conv weights) is packed once by PackI8 into the
// layout both kernels read. A is read in place, one K pair (two contiguous
// bytes) at a time through a pair offset table: a convolution's quantized,
// zero-bordered HWC input (convPairs, in im2col.go), or a plain row-major
// matrix of even K (MatMulI8Into).

// I8 is a dense int8 tensor (row-major), the quantized twin of Tensor.
type I8 struct {
	Shape []int
	Data  []int8
}

// I32 is a dense int32 tensor (row-major), the accumulator type of the
// int8 GEMM.
type I32 struct {
	Shape []int
	Data  []int32
}

// NewI8 allocates a zero int8 tensor with the given shape.
func NewI8(shape ...int) *I8 {
	return &I8{Shape: cloneShape(shape), Data: make([]int8, shapeLen(shape))}
}

// NewI32 allocates a zero int32 tensor with the given shape.
func NewI32(shape ...int) *I32 {
	return &I32{Shape: cloneShape(shape), Data: make([]int32, shapeLen(shape))}
}

// Len returns the number of elements.
func (t *I8) Len() int { return len(t.Data) }

// Len returns the number of elements.
func (t *I32) Len() int { return len(t.Data) }

func shapeLen(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: invalid non-positive dim in shape")
		}
		n *= d
	}
	return n
}

func cloneShape(shape []int) []int {
	c := len(shape)
	if c < 4 {
		c = 4 // headroom so pooled reshape never reallocates (see Workspace)
	}
	return append(make([]int, 0, c), shape...)
}

// QuantParams holds the per-tensor symmetric quantization scale. Zero-point
// is always 0.
type QuantParams struct {
	Scale float32
}

// ChooseQuantParams derives the symmetric scale covering data's full range:
// scale = max|x| / 127. An all-zero (or empty) tensor gets scale 1 so that
// dequantization is well-defined.
func ChooseQuantParams(data []float32) QuantParams {
	var maxAbs float32
	for _, v := range data {
		if v < 0 {
			v = -v
		}
		if v > maxAbs { // NaN compares false, so NaNs never poison the scale
			maxAbs = v
		}
	}
	if maxAbs == 0 {
		return QuantParams{Scale: 1}
	}
	return QuantParams{Scale: maxAbs / 127}
}

// QuantizeInto writes round-half-away-from-zero quantized values of src into
// dst.Data[:len(src)] using qp. Values are clamped to [-127, 127] (the
// symmetric range; -128 is never produced). dst must hold at least
// len(src.Data) elements.
func QuantizeInto(dst *I8, src *Tensor, qp QuantParams) {
	if len(dst.Data) < len(src.Data) {
		panic(fmt.Sprintf("tensor: quantize dst holds %d elements, need %d", len(dst.Data), len(src.Data)))
	}
	inv := 1 / qp.Scale
	for i, v := range src.Data {
		dst.Data[i] = quantOne(float32(v * inv))
	}
}

// quantOne rounds half away from zero and clamps to the symmetric int8
// range. NaN maps to 0.
func quantOne(s float32) int8 {
	if s != s { // NaN
		return 0
	}
	if s >= 0 {
		s += 0.5
		if s >= 127 {
			return 127
		}
		return int8(s)
	}
	s -= 0.5
	if s <= -127 {
		return -127
	}
	return int8(s)
}

// QuantizeTensor quantizes src into a fresh I8 with the derived per-tensor
// parameters.
func QuantizeTensor(src *Tensor) (*I8, QuantParams) {
	qp := ChooseQuantParams(src.Data)
	q := &I8{Shape: cloneShape(src.Shape), Data: make([]int8, len(src.Data))}
	QuantizeInto(q, src, qp)
	return q, qp
}

// QuantizeConvWeights quantizes OIHW convolution weights per tensor and
// packs them as the B operand of ConvI8WS: K in (kernel row, kernel
// column, channel) order over the input's channels rounded up to even,
// with zero rows for the pad channel. The scale is that of the whole
// tensor, as QuantizeTensor(ConvWeightT(w)) derives it. Conv quantizes its
// weights once, at first int8 use.
func QuantizeConvWeights(w *Tensor) (*PackedI8, QuantParams) {
	if len(w.Shape) != 4 {
		panic(fmt.Sprintf("tensor: conv weights must be OIHW, got %v", w.Shape))
	}
	outC, inC, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	cp := inC + inC%2
	q, qp := QuantizeTensor(w)
	b := NewI8(kh*kw*cp, outC)
	for o := 0; o < outC; o++ {
		for c := 0; c < inC; c++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					b.Data[((ky*kw+kx)*cp+c)*outC+o] = q.Data[((o*inC+c)*kh+ky)*kw+kx]
				}
			}
		}
	}
	return PackI8(b, kh*kw*cp, outC), qp
}

// PackedI8 is the B operand of the int8 GEMM in the layout its kernels
// read: B[K×N] sign-extended to int16 and cut into 16-column panels, each
// panel a dense run of ⌈K/2⌉ row pairs of 32 values with the pair's two
// rows interleaved column by column:
//
//	Data[(jp·⌈K/2⌉ + p)·32 + 2c + t] = B[2p+t][16·jp + c]
//
// Columns past N and the row past an odd K are zero, so one VPMADDWD of a
// broadcast A pair against 16 of a pair's values yields 8 columns' exact
// two-term sums.
type PackedI8 struct {
	K, N int
	Data []int16
}

// i8PairLen is the int16 length of one packed row pair of a panel.
const i8PairLen = 2 * gemmNR16

// PackI8 packs the row-major K×N int8 matrix b for the int8 GEMM.
func PackI8(b *I8, k, n int) *PackedI8 {
	if k <= 0 || n <= 0 || len(b.Data) != k*n {
		panic(fmt.Sprintf("tensor: pack %dx%d int8 matrix with %d elements", k, n, len(b.Data)))
	}
	panels := (n + gemmNR16 - 1) / gemmNR16
	p := &PackedI8{K: k, N: n, Data: make([]int16, panels*((k+1)/2)*i8PairLen)}
	for kk := 0; kk < k; kk++ {
		for j, v := range b.Data[kk*n : (kk+1)*n] {
			p.panel(j / gemmNR16)[kk/2*i8PairLen+2*(j%gemmNR16)+kk%2] = int16(v)
		}
	}
	return p
}

// panel returns the jp-th 16-column panel of p.
func (p *PackedI8) panel(jp int) []int16 {
	size := (p.K + 1) / 2 * i8PairLen
	return p.Data[jp*size : (jp+1)*size : (jp+1)*size]
}

// i8A is the int8 GEMM's A operand, read in place like gemmA: row i's K
// pair p is the two bytes at data[origin(i) + off[p]], and off holds one
// entry per pair, in increasing order.
type i8A struct {
	data []int8
	off  []int32
	rowGeom
}

// last returns the largest address an m-row product reads.
func (a *i8A) last(m int) int {
	return a.origin(m-1) + int(a.off[len(a.off)-1]) + 1
}

// MatMulI8Into computes C[M×N] = A[M×K] · B[K×N] with exact int32
// accumulation for a row-major A, where B was packed by PackI8 (K and N are
// b's) and K is even, so that every K pair is two bytes of one row. Every
// element of dst[:m·N] is overwritten. It reads A through a pair table it
// allocates; convolutions read their A in place instead (ConvI8WS).
func MatMulI8Into(dst *I32, a *I8, b *PackedI8, m int) {
	k, n := b.K, b.N
	if k%2 != 0 || len(a.Data) != m*k {
		panic(fmt.Sprintf("tensor: int8 matmul %dx%d · %dx%d with %d A elements (K must be even)", m, k, k, n, len(a.Data)))
	}
	if len(dst.Data) < m*n {
		panic(fmt.Sprintf("tensor: int8 matmul dst holds %d elements, need %d", len(dst.Data), m*n))
	}
	off := make([]int32, k/2)
	for p := range off {
		off[p] = int32(2 * p)
	}
	matMulI8(dst.Data, i8A{data: a.Data, off: off, rowGeom: rowGeom{cols: 1, rowStride: k}}, b, m, ActiveKernel())
}

// matMulI8 computes the m×N int32 product of a and b into cd. Integer
// addition is associative, so unlike the float32 kernels no summation-order
// contract is needed: any host or kernel setting produces the same bits.
// avx2 runs the 4×16 assembly tile, sse and noasm the portable kernel. The
// product runs on the calling goroutine.
func matMulI8(cd []int32, a i8A, b *PackedI8, m int, kern Kernel) {
	if len(a.off) != (b.K+1)/2 {
		panic(fmt.Sprintf("tensor: int8 A has %d K pairs, B %d", len(a.off), (b.K+1)/2))
	}
	// The asm kernel does not bounds-check. Index the largest address any
	// tile reads, so an operand shorter than its geometry panics here.
	_ = a.data[a.last(m)]
	if kern == KernelAVX2 {
		matMulI8AVX2(cd, a, b, m)
		return
	}
	matMulI8Rows(cd, a, b, 0, m)
}

// matMulI8AVX2 runs the 4×16 assembly tile over every panel and every
// 4-row stripe. A panel past N's last multiple of 16 is computed into a
// stack tile and its valid columns copied out; the last m%4 rows run on the
// portable kernel.
func matMulI8AVX2(cd []int32, a i8A, b *PackedI8, m int) {
	n := b.N
	m4 := m - m%gemmMR4
	var tile [gemmMR4 * gemmNR16]int32
	for jp, j := 0, 0; j < n; jp, j = jp+1, j+gemmNR16 {
		panel := b.panel(jp)
		rows := a.rows(0, 0)
		for i := 0; i < m4; i += gemmMR4 {
			r0, r1 := &a.data[rows.next()], &a.data[rows.next()]
			r2, r3 := &a.data[rows.next()], &a.data[rows.next()]
			if j+gemmNR16 <= n {
				i8gemm4x16(len(a.off), r0, r1, r2, r3, &a.off[0], &panel[0], &cd[i*n+j], n)
				continue
			}
			i8gemm4x16(len(a.off), r0, r1, r2, r3, &a.off[0], &panel[0], &tile[0], gemmNR16)
			for r := 0; r < gemmMR4; r++ {
				copy(cd[(i+r)*n+j:(i+r+1)*n], tile[r*gemmNR16:])
			}
		}
	}
	matMulI8Rows(cd, a, b, m4, m)
}

// matMulI8Rows computes rows [i0, i1) of C on the portable kernel: per row
// and panel, 16 int32 sums over the packed row pairs. The pair update is
// written out because the compiler does not unroll: as a loop over the 16
// columns it measured ~1.4× slower.
//
// It skips a pair whose two A bytes are both zero: two channels of one
// pixel, both zero after a ReLU, or a padding pixel.
func matMulI8Rows(cd []int32, a i8A, b *PackedI8, i0, i1 int) {
	n := b.N
	rows := a.rows(i0, 0)
	for i := i0; i < i1; i++ {
		arow := a.data[rows.next():]
		crow := cd[i*n : (i+1)*n : (i+1)*n]
		for jp, j := 0, 0; j < n; jp, j = jp+1, j+gemmNR16 {
			panel := b.panel(jp)
			var acc [gemmNR16]int32
			for p, o := range a.off {
				a0, a1 := int32(arow[o]), int32(arow[o+1])
				if a0|a1 == 0 {
					continue
				}
				bq := (*[i8PairLen]int16)(panel[p*i8PairLen:])
				acc[0] += a0*int32(bq[0]) + a1*int32(bq[1])
				acc[1] += a0*int32(bq[2]) + a1*int32(bq[3])
				acc[2] += a0*int32(bq[4]) + a1*int32(bq[5])
				acc[3] += a0*int32(bq[6]) + a1*int32(bq[7])
				acc[4] += a0*int32(bq[8]) + a1*int32(bq[9])
				acc[5] += a0*int32(bq[10]) + a1*int32(bq[11])
				acc[6] += a0*int32(bq[12]) + a1*int32(bq[13])
				acc[7] += a0*int32(bq[14]) + a1*int32(bq[15])
				acc[8] += a0*int32(bq[16]) + a1*int32(bq[17])
				acc[9] += a0*int32(bq[18]) + a1*int32(bq[19])
				acc[10] += a0*int32(bq[20]) + a1*int32(bq[21])
				acc[11] += a0*int32(bq[22]) + a1*int32(bq[23])
				acc[12] += a0*int32(bq[24]) + a1*int32(bq[25])
				acc[13] += a0*int32(bq[26]) + a1*int32(bq[27])
				acc[14] += a0*int32(bq[28]) + a1*int32(bq[29])
				acc[15] += a0*int32(bq[30]) + a1*int32(bq[31])
			}
			copy(crow[j:], acc[:])
		}
	}
}

// ConvI8WS is the int8 twin of Conv2DWS with a kh×kw kernel, on weights
// QuantizeConvWeights packed into wq with scale sw: x is quantized per
// tensor into a zero-bordered even-channel copy, the GEMM reads it in place
// in exact int32, and ep finishes the sums, dequantized as
// float32(acc)·(scale_x·sw). Every step is exact or elementwise float32,
// so every kernel gives the same bits. The output is ws-owned.
func ConvI8WS(ws *Workspace, x *Tensor, wq *PackedI8, sw float32, ep Epilogue, kh, kw, stride, pad int) *Tensor {
	outH, outW := convOutDims(x.Shape, kh, kw, stride, pad)
	h, w, c := x.Shape[0], x.Shape[1], x.Shape[2]
	cp := c + c%2
	if wq.K != kh*kw*cp {
		panic(fmt.Sprintf("tensor: int8 conv of %d channels with %dx%d kernel needs K %d, weights have %d",
			c, kh, kw, kh*kw*cp, wq.K))
	}
	m, n := outH*outW, wq.N
	hp, wp := h+2*pad, w+2*pad
	qp := ChooseQuantParams(x.Data)
	qx := ws.GetI8(hp, wp, cp)
	quantizePadInto(qx.Data, x.Data, h, w, c, cp, pad, 1/qp.Scale)
	vec, off := ws.convScratch(n, wq.K/2)
	acc := ws.GetI32(m, n)
	kern := ActiveKernel()
	matMulI8(acc.Data, convPairs(qx.Data, off, cp, hp, wp, kh, kw, stride, outW), wq, m, kern)
	ws.PutI8(qx)

	out := ws.Get(outH, outW, n)
	t := ep.resolve(vec, m, n)
	t.apply(out.Data, acc.Data, qp.Scale*sw, 0, m, n, kern)
	ws.PutI32(acc)
	return out
}
