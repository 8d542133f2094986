// Package tensor provides the dense FP32 tensor operations that the DNN
// substrate builds on: conv2d as a GEMM over the im2col patch matrix (the
// lowering Gemmini's software stack uses, so timing maps 1:1 onto the
// accelerator model; on the host every conv GEMM reads its patches in
// place), pooling, batch normalization, activations, and fully-connected
// layers.
//
// Activations are channel-last, HWC (single image per forward pass, as the
// UAV controller runs batch-1 inference): a convolution's pixel-major GEMM
// product is its output, finished in the GEMM by its Epilogue. All
// operations are deterministic: the cache-blocked GEMM (matmul.go) keeps a
// fixed per-element summation order in every code path, and the
// ...Into / ...WS variants that reuse Workspace scratch buffers produce
// bit-identical results to their allocating counterparts.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense FP32 tensor in row-major HWC (or arbitrary) layout.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	// The panic message deliberately omits the shape slice: formatting it
	// would make `shape` escape, heap-allocating every variadic call site on
	// the zero-alloc inference path.
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: invalid non-positive dim in shape")
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data with a shape; the length must match.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: %d elements for shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns shape[i].
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.Data))
	copy(d, t.Data)
	return &Tensor{Shape: append([]int(nil), t.Shape...), Data: d}
}

// convOutDims validates a convolution of an HWC shape and returns the
// output extent.
func convOutDims(shape []int, kh, kw, stride, pad int) (outH, outW int) {
	if len(shape) != 3 {
		panic(fmt.Sprintf("tensor: conv needs HWC input, got %v", shape))
	}
	h, w := shape[0], shape[1]
	outH = (h+2*pad-kh)/stride + 1
	outW = (w+2*pad-kw)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("tensor: conv output %dx%d invalid", outH, outW))
	}
	return outH, outW
}

// HWCInto writes the CHW tensor x into dst channel-last, shaped [H, W, C].
// A 1-channel image is the same bytes either way.
func HWCInto(dst, x *Tensor) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	if len(dst.Data) < c*h*w {
		panic("tensor: hwc dst too small")
	}
	for ch := 0; ch < c; ch++ {
		for i, v := range x.Data[ch*h*w : (ch+1)*h*w] {
			dst.Data[i*c+ch] = v
		}
	}
}

// ConvWeightT transposes OIHW convolution weights into the [inC*KH*KW, outC]
// matrix the fp32 conv GEMM consumes, K in (channel, kernel row, kernel
// column) order. Layers precompute this once per weight tensor instead of
// re-transposing on every forward pass.
func ConvWeightT(w *Tensor) *Tensor {
	if len(w.Shape) != 4 {
		panic(fmt.Sprintf("tensor: conv weights must be OIHW, got %v", w.Shape))
	}
	outC := w.Shape[0]
	k := w.Shape[1] * w.Shape[2] * w.Shape[3]
	wt := New(k, outC)
	for o := 0; o < outC; o++ {
		for j := 0; j < k; j++ {
			wt.Data[j*outC+o] = w.Data[o*k+j]
		}
	}
	return wt
}

// Conv2D computes a 2-D convolution of the HWC input with weights shaped
// [outC, inC, KH, KW] and per-channel bias (may be nil), returning an HWC
// output. Implemented as a GEMM over the in-place patch matrix.
func Conv2D(x, w *Tensor, bias []float32, stride, pad int) *Tensor {
	return Conv2DWS(nil, x, w, nil, Epilogue{Bias: bias}, stride, pad)
}

// Conv2DWS is Conv2D drawing its scratch and the output from ws (nil ws
// allocates fresh tensors), finished with ep. wt is the precomputed
// ConvWeightT(w) transpose, or nil to transpose on the fly. The returned
// tensor is ws-owned; the caller releases it with ws.Put when done.
//
// The GEMM reads its patch matrix in place (convA): from x.Data itself when
// pad is 0, else from the zero-bordered copy padInto writes to scratch, both
// through an offset table drawn from ws's int32 pool. No M×K matrix is
// built, and the [outH·outW × outC] product the GEMM writes, ep applied to
// each band of it, is the output.
func Conv2DWS(ws *Workspace, x, w, wt *Tensor, ep Epilogue, stride, pad int) *Tensor {
	if len(w.Shape) != 4 {
		panic(fmt.Sprintf("tensor: conv weights must be OIHW, got %v", w.Shape))
	}
	outC, inC, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	outH, outW := convOutDims(x.Shape, kh, kw, stride, pad)
	if x.Shape[2] != inC {
		panic(fmt.Sprintf("tensor: conv input has %d channels, weights expect %d", x.Shape[2], inC))
	}
	m := outH * outW
	k := inC * kh * kw
	if wt == nil {
		wt = ConvWeightT(w)
	}
	if len(wt.Data) != k*outC {
		panic(fmt.Sprintf("tensor: conv weight transpose holds %d elements, need %d", len(wt.Data), k*outC))
	}

	h, wd := x.Shape[0], x.Shape[1]
	src := x.Data
	var padded *Tensor
	if pad > 0 {
		padded = ws.Get(h+2*pad, wd+2*pad, inC)
		padInto(padded.Data, x.Data, h, wd, inC, pad)
		src = padded.Data
	}
	vec, off := ws.convScratch(outC, k)
	out := ws.Get(outH, outW, outC)
	gemm(out.Data, convA(src, off, inC, h+2*pad, wd+2*pad, kh, kw, stride, outW),
		wt.Data, m, k, outC, ep.resolve(vec, m, outC))
	ws.Put(padded)
	return out
}

// BatchNorm applies inference-mode batch normalization per channel of an
// HWC tensor: y = gamma * (x - mean) / sqrt(var + eps) + beta.
func BatchNorm(x *Tensor, gamma, beta, mean, variance []float32, eps float32) *Tensor {
	out := New(x.Shape...)
	BatchNormInto(out, x, gamma, beta, mean, variance, eps)
	return out
}

// BatchNormInto is BatchNorm writing into dst; dst may alias x for in-place
// normalization.
func BatchNormInto(dst, x *Tensor, gamma, beta, mean, variance []float32, eps float32) {
	c := x.Shape[len(x.Shape)-1]
	if len(gamma) != c || len(beta) != c || len(mean) != c || len(variance) != c {
		panic("tensor: batchnorm parameter length mismatch")
	}
	if len(dst.Data) < len(x.Data) {
		panic("tensor: batchnorm dst too small")
	}
	for ch := 0; ch < c; ch++ {
		scale, shift := bnScaleShift(gamma[ch], beta[ch], mean[ch], variance[ch], eps)
		for i := ch; i < len(x.Data); i += c {
			dst.Data[i] = float32(x.Data[i]*scale) + shift
		}
	}
}

// ReLU applies max(0, x) elementwise, in a fresh tensor.
func ReLU(x *Tensor) *Tensor {
	out := New(x.Shape...)
	ReLUInto(out, x)
	return out
}

// ReLUInto writes max(0, x) into dst; dst may alias x.
func ReLUInto(dst, x *Tensor) {
	if len(dst.Data) < len(x.Data) {
		panic("tensor: relu dst too small")
	}
	for i, v := range x.Data {
		dst.Data[i] = reluPass(v, 0)
	}
}

// Add returns x + y elementwise (residual connections); shapes must match.
func Add(x, y *Tensor) *Tensor {
	out := New(x.Shape...)
	AddInto(out, x, y)
	return out
}

// AddInto writes x + y into dst; dst may alias either operand.
func AddInto(dst, x, y *Tensor) {
	if len(x.Data) != len(y.Data) {
		panic(fmt.Sprintf("tensor: add shape mismatch %v vs %v", x.Shape, y.Shape))
	}
	if len(dst.Data) < len(x.Data) {
		panic("tensor: add dst too small")
	}
	for i, v := range y.Data {
		dst.Data[i] = x.Data[i] + v
	}
}

// AvgPoolGrid divides each channel of an HWC tensor into a gy×gx grid and
// averages within each cell, producing a [C, gy, gx] tensor.
// AvgPoolGrid(x, 1, 1) is global average pooling; larger grids preserve
// coarse spatial structure for the classifier heads.
func AvgPoolGrid(x *Tensor, gy, gx int) *Tensor {
	out := New(x.Shape[2], gy, gx)
	AvgPoolGridInto(out.Data, x, gy, gx)
	return out
}

// AvgPoolGridInto is AvgPoolGrid writing the [C, gy, gx] cells into dst.
// Each channel's cell sums its pixels row by row, left to right, in dst.
func AvgPoolGridInto(dst []float32, x *Tensor, gy, gx int) {
	h, w, c := x.Shape[0], x.Shape[1], x.Shape[2]
	if gy <= 0 || gx <= 0 || gy > h || gx > w {
		panic(fmt.Sprintf("tensor: avgpool grid %dx%d on %dx%d", gy, gx, h, w))
	}
	if len(dst) < c*gy*gx {
		panic("tensor: avgpool dst too small")
	}
	cells := gy * gx
	for cy := 0; cy < gy; cy++ {
		y0, y1 := cy*h/gy, (cy+1)*h/gy
		for cx := 0; cx < gx; cx++ {
			x0, x1 := cx*w/gx, (cx+1)*w/gx
			sum := dst[cy*gx+cx:]
			for ch := 0; ch < c; ch++ {
				sum[ch*cells] = 0
			}
			for yy := y0; yy < y1; yy++ {
				for xx := x0; xx < x1; xx++ {
					for ch, v := range x.Data[(yy*w+xx)*c : (yy*w+xx+1)*c] {
						sum[ch*cells] += v
					}
				}
			}
			for ch := 0; ch < c; ch++ {
				sum[ch*cells] /= float32((y1 - y0) * (x1 - x0))
			}
		}
	}
}

// Linear computes y = W·x + b for W shaped [out, in].
func Linear(x *Tensor, w *Tensor, b []float32) *Tensor {
	out := New(w.Shape[0])
	LinearInto(out, x, w, b)
	return out
}

// LinearInto is Linear writing into dst (length ≥ out).
func LinearInto(dst, x, w *Tensor, b []float32) {
	outN, inN := w.Shape[0], w.Shape[1]
	if len(x.Data) != inN {
		panic(fmt.Sprintf("tensor: linear input %d, want %d", len(x.Data), inN))
	}
	if len(dst.Data) < outN {
		panic("tensor: linear dst too small")
	}
	for o := 0; o < outN; o++ {
		var s float32
		row := w.Data[o*inN : (o+1)*inN]
		for i, v := range x.Data {
			s += float32(row[i] * v)
		}
		if b != nil {
			s += b[o]
		}
		dst.Data[o] = s
	}
}

// Softmax returns the softmax of a vector, numerically stabilized. NaN
// inputs are handled deterministically: a NaN entry contributes zero
// probability, and an all-NaN input yields the uniform distribution.
func Softmax(x []float32) []float32 {
	out := make([]float32, len(x))
	SoftmaxInto(out, x)
	return out
}

// SoftmaxInto is Softmax writing into dst (length must match x).
func SoftmaxInto(dst, x []float32) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: softmax dst length %d, want %d", len(dst), len(x)))
	}
	if len(x) == 0 {
		return
	}
	max := float32(math.Inf(-1))
	valid := 0
	for _, v := range x {
		if v != v { // NaN
			continue
		}
		valid++
		if v > max {
			max = v
		}
	}
	if valid == 0 {
		u := 1 / float32(len(x))
		for i := range dst {
			dst[i] = u
		}
		return
	}
	var sum float64
	for i, v := range x {
		if v != v {
			dst[i] = 0
			continue
		}
		e := math.Exp(float64(v - max))
		dst[i] = float32(e)
		sum += e
	}
	for i := range dst {
		dst[i] = float32(float64(dst[i]) / sum)
	}
}

// Argmax returns the index of the largest element. NaN entries never win;
// an all-NaN (or empty) input returns 0.
func Argmax(x []float32) int {
	best := -1
	var bestV float32
	for i, v := range x {
		if v != v { // NaN
			continue
		}
		if best < 0 || v > bestV {
			best, bestV = i, v
		}
	}
	if best < 0 {
		return 0
	}
	return best
}
