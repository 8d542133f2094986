package tensor

import "fmt"

// Int8 quantization substrate for Gemmini's native low-precision mode.
//
// The scheme is per-tensor symmetric: q = clamp(round(x / scale), -127, 127)
// with zero-point 0, so padding zeros in im2col quantize to 0 and the int8
// GEMM needs no zero-point correction terms. Accumulation is exact int32
// (worst case |q| ≤ 127 so K up to ~2^17 cannot overflow 127·127·K), which
// makes the quantized path kernel-invariant by construction: integer sums
// have one representable answer, so noasm/SSE/AVX2 hosts and solo/batched
// groupings all produce exactly equal int8-path results. The float32
// bit-exactness contract of matmul.go therefore extends to int8 as
// exact equality rather than per-kernel tolerance.

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
		dst.Data[i] = quantOne(v * inv)
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
// parameters. Used for one-time weight quantization at model load.
func QuantizeTensor(src *Tensor) (*I8, QuantParams) {
	qp := ChooseQuantParams(src.Data)
	q := &I8{Shape: cloneShape(src.Shape), Data: make([]int8, len(src.Data))}
	QuantizeInto(q, src, qp)
	return q, qp
}

// MatMulI8Into computes C[M×N] = A[M×K] · B[K×N] with exact int32
// accumulation. Integer addition is associative, so unlike the float32
// kernels no summation-order contract is needed: any host, kernel setting,
// or batching arrangement produces the same bits. The loop order (i, k, j)
// streams B rows for cache locality.
func MatMulI8Into(dst *I32, a, b *I8, m, k, n int) {
	if len(a.Data) != m*k || len(b.Data) != k*n {
		panic(fmt.Sprintf("tensor: int8 matmul %dx%d · %dx%d with %d/%d elements",
			m, k, k, n, len(a.Data), len(b.Data)))
	}
	if len(dst.Data) < m*n {
		panic(fmt.Sprintf("tensor: int8 matmul dst holds %d elements, need %d", len(dst.Data), m*n))
	}
	for i := 0; i < m; i++ {
		crow := dst.Data[i*n : (i+1)*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
		arow := a.Data[i*k : (i+1)*k : (i+1)*k]
		for kk := 0; kk < k; kk++ {
			av := int32(arow[kk])
			if av == 0 {
				continue // im2col padding and ReLU sparsity skip whole rows
			}
			brow := b.Data[kk*n : (kk+1)*n : (kk+1)*n]
			for j, bv := range brow {
				crow[j] += av * int32(bv)
			}
		}
	}
}

// Im2ColI8Into lowers a quantized CHW input for a KH×KW convolution into
// int8 columns, mirroring Im2ColInto, including its zero-bordered scratch
// drawn from ws. With zero-point 0, padding positions are exact zeros in the
// quantized domain, so quantize-then-im2col equals im2col-then-quantize.
func Im2ColI8Into(ws *Workspace, cols, x *I8, kh, kw, stride, pad int) (outH, outW int) {
	outH, outW = convOutDims(x.Shape, kh, kw, stride, pad)
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	checkCols(len(cols.Data), c, kh, kw, outH, outW)
	var padded *I8
	var scratch []int8
	if pad > 0 {
		padded = ws.GetI8(c, h+2*pad, w+2*pad)
		scratch = padded.Data
	}
	im2col(cols.Data, x.Data, scratch, c, h, w, kh, kw, stride, pad, outH, outW)
	ws.PutI8(padded)
	return outH, outW
}
