// Package tensor provides the dense FP32 tensor operations that the DNN
// substrate builds on: conv2d as a GEMM over the im2col patch matrix (the
// lowering Gemmini's software stack uses, so timing maps 1:1 onto the
// accelerator model; on the host the fp32 GEMM reads the patches in place),
// pooling, batch normalization, activations, and fully-connected layers.
//
// Layout is CHW (single image per forward pass, as the UAV controller runs
// batch-1 inference). All operations are deterministic: the cache-blocked
// GEMM (matmul.go) keeps a fixed per-element summation order in every code
// path, and the ...Into / ...WS variants that reuse Workspace scratch
// buffers produce bit-identical results to their allocating counterparts.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense FP32 tensor in row-major CHW (or arbitrary) layout.
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

// convOutDims validates an im2col lowering of a CHW shape and returns the
// output extent.
func convOutDims(shape []int, kh, kw, stride, pad int) (outH, outW int) {
	if len(shape) != 3 {
		panic(fmt.Sprintf("tensor: im2col needs CHW input, got %v", shape))
	}
	h, w := shape[1], shape[2]
	outH = (h+2*pad-kh)/stride + 1
	outW = (w+2*pad-kw)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("tensor: im2col output %dx%d invalid", outH, outW))
	}
	return outH, outW
}

// checkCols panics unless an im2col destination of n elements fits the
// lowering.
func checkCols(n, c, kh, kw, outH, outW int) {
	if need := outH * outW * c * kh * kw; n < need {
		panic(fmt.Sprintf("tensor: im2col dst holds %d elements, need %d", n, need))
	}
}

// ConvWeightT transposes OIHW convolution weights into the [inC*KH*KW, outC]
// matrix the im2col GEMM consumes. Layers precompute this once per weight
// tensor instead of re-transposing on every forward pass.
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

// Conv2D computes a 2-D convolution of the CHW input with weights shaped
// [outC, inC, KH, KW] and per-channel bias (may be nil), returning a CHW
// output. Implemented as a GEMM over the im2col patch matrix.
func Conv2D(x, w *Tensor, bias []float32, stride, pad int) *Tensor {
	return Conv2DWS(nil, x, w, nil, Epilogue{Bias: bias}, stride, pad)
}

// Conv2DWS is Conv2D drawing its scratch and the output from ws (nil ws
// allocates fresh tensors), finishing with ep in the pass that transposes
// the GEMM product to CHW. wt is the precomputed ConvWeightT(w) transpose,
// or nil to transpose on the fly. The returned tensor is ws-owned; the
// caller releases it with ws.Put when done.
//
// The GEMM reads its patch matrix in place (convA): from x.Data itself when
// pad is 0, else from the zero-bordered copy padInto writes to scratch, both
// through an offset table drawn from ws's int32 pool. No M×K matrix is
// built.
func Conv2DWS(ws *Workspace, x, w, wt *Tensor, ep Epilogue, stride, pad int) *Tensor {
	if len(w.Shape) != 4 {
		panic(fmt.Sprintf("tensor: conv weights must be OIHW, got %v", w.Shape))
	}
	outC, inC, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	if x.Shape[0] != inC {
		panic(fmt.Sprintf("tensor: conv input has %d channels, weights expect %d", x.Shape[0], inC))
	}
	outH, outW := convOutDims(x.Shape, kh, kw, stride, pad)
	m := outH * outW
	k := inC * kh * kw
	if wt == nil {
		wt = ConvWeightT(w)
	}
	if len(wt.Data) != k*outC {
		panic(fmt.Sprintf("tensor: conv weight transpose holds %d elements, need %d", len(wt.Data), k*outC))
	}

	h, wd := x.Shape[1], x.Shape[2]
	src := x.Data
	var padded *Tensor
	if pad > 0 {
		padded = ws.Get(inC, h+2*pad, wd+2*pad)
		padInto(padded.Data, x.Data, inC, h, wd, pad)
		src = padded.Data
	}
	off := ws.GetI32(k)
	prod := ws.Get(m, outC)
	gemm(prod.Data, convA(src, off.Data, inC, h+2*pad, wd+2*pad, kh, kw, stride, outW),
		wt.Data, m, k, outC) // [M, outC]
	ws.PutI32(off)
	ws.Put(padded)

	out := ws.Get(outC, outH, outW)
	ep.transpose(out, prod.Data, m, outC)
	ws.Put(prod)
	return out
}

// Epilogue is the per-output-channel tail a convolution applies in the one
// pass that transposes its pixel-major GEMM result to CHW: add the bias,
// then, when Gamma is set, inference batch norm in BatchNormInto's
// x*scale + shift form with the same scale and shift, then, when ReLU is
// set, the rectifier. Each step rounds to float32 in that order, so the
// fused pass is bit-identical to bias, then BatchNormInto, then ReLUInto.
type Epilogue struct {
	Bias                   []float32 // nil adds zero
	Gamma, Beta, Mean, Var []float32 // batch-norm statistics; nil Gamma skips the norm
	Eps                    float32
	ReLU                   bool
}

// channel returns channel o's bias, its batch-norm scale and shift, and the
// mask that keeps a value's bits when ReLU is off.
func (e *Epilogue) channel(o int) (bias, scale, shift float32, pass uint32) {
	if e.Bias != nil {
		bias = e.Bias[o]
	}
	if e.Gamma != nil {
		scale, shift = bnScaleShift(e.Gamma[o], e.Beta[o], e.Mean[o], e.Var[o], e.Eps)
	}
	if !e.ReLU {
		pass = ^uint32(0)
	}
	return bias, scale, shift, pass
}

// checkShape panics unless the epilogue's parameters cover n channels and
// dst holds n×m outputs.
func (e *Epilogue) checkShape(dst *Tensor, m, n int) {
	if len(dst.Data) < m*n {
		panic("tensor: conv epilogue dst too small")
	}
	if (e.Bias != nil && len(e.Bias) != n) || (e.Gamma != nil &&
		(len(e.Gamma) != n || len(e.Beta) != n || len(e.Mean) != n || len(e.Var) != n)) {
		panic("tensor: conv epilogue parameter length mismatch")
	}
}

// transpose writes dst[o][i] = e(prod[i*n+o]) for the m×n float32 GEMM
// product prod.
func (e *Epilogue) transpose(dst *Tensor, prod []float32, m, n int) {
	e.checkShape(dst, m, n)
	for o := 0; o < n; o++ {
		b, scale, shift, pass := e.channel(o)
		row := dst.Data[o*m : (o+1)*m : (o+1)*m]
		if e.Gamma == nil {
			for i := range row {
				row[i] = reluPass(prod[i*n+o]+b, pass)
			}
			continue
		}
		for i := range row {
			x := prod[i*n+o] + b
			row[i] = reluPass(x*scale+shift, pass)
		}
	}
}

// Dequantize is transpose for the m×n int32 accumulator of an int8 GEMM:
// each sum is first dequantized as float32(acc)*d + bias.
func (e *Epilogue) Dequantize(dst *Tensor, acc []int32, d float32, m, n int) {
	e.checkShape(dst, m, n)
	for o := 0; o < n; o++ {
		b, scale, shift, pass := e.channel(o)
		row := dst.Data[o*m : (o+1)*m : (o+1)*m]
		if e.Gamma == nil {
			for i := range row {
				row[i] = reluPass(float32(acc[i*n+o])*d+b, pass)
			}
			continue
		}
		for i := range row {
			x := float32(acc[i*n+o])*d + b
			row[i] = reluPass(x*scale+shift, pass)
		}
	}
}

// BatchNorm applies inference-mode batch normalization per channel:
// y = gamma * (x - mean) / sqrt(var + eps) + beta.
func BatchNorm(x *Tensor, gamma, beta, mean, variance []float32, eps float32) *Tensor {
	out := New(x.Shape...)
	BatchNormInto(out, x, gamma, beta, mean, variance, eps)
	return out
}

// BatchNormInto is BatchNorm writing into dst; dst may alias x for in-place
// normalization.
func BatchNormInto(dst, x *Tensor, gamma, beta, mean, variance []float32, eps float32) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	if len(gamma) != c || len(beta) != c || len(mean) != c || len(variance) != c {
		panic("tensor: batchnorm parameter length mismatch")
	}
	if len(dst.Data) < c*h*w {
		panic("tensor: batchnorm dst too small")
	}
	for ch := 0; ch < c; ch++ {
		scale, shift := bnScaleShift(gamma[ch], beta[ch], mean[ch], variance[ch], eps)
		base := ch * h * w
		for i := 0; i < h*w; i++ {
			dst.Data[base+i] = x.Data[base+i]*scale + shift
		}
	}
}

// bnScaleShift folds one channel of inference batch norm into the affine
// x*scale + shift that BatchNormInto and the conv Epilogue both apply, so
// the two cannot drift apart.
func bnScaleShift(gamma, beta, mean, variance, eps float32) (scale, shift float32) {
	scale = gamma / float32(math.Sqrt(float64(variance+eps)))
	shift = beta - mean*scale
	return scale, shift
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

// reluPass is the rectifier without a data-dependent branch (a v < 0 test
// mispredicts on about half of all activations). It zeroes exactly the
// negative non-NaN values, the bit patterns in (0x80000000, 0xff800000], so
// -0 and NaN pass through just as they do a v < 0 compare. pass is ORed
// into the mask: all ones returns v unchanged, zero applies the ReLU.
func reluPass(v float32, pass uint32) float32 {
	u := math.Float32bits(v)
	neg := uint32((uint64(u-0x80000001) - 0x7f800000) >> 63) // 1 iff negative non-NaN
	return math.Float32frombits(u & ((neg - 1) | pass))
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

// AddReLUInto writes max(0, x + y) into dst in one pass, bit-identical to
// AddInto then ReLUInto; dst may alias either operand.
func AddReLUInto(dst, x, y *Tensor) {
	if len(x.Data) != len(y.Data) {
		panic(fmt.Sprintf("tensor: add shape mismatch %v vs %v", x.Shape, y.Shape))
	}
	if len(dst.Data) < len(x.Data) {
		panic("tensor: add dst too small")
	}
	for i, v := range y.Data {
		dst.Data[i] = reluPass(x.Data[i]+v, 0)
	}
}

// MaxPool2D applies k×k max pooling with the given stride to a CHW tensor.
func MaxPool2D(x *Tensor, k, stride int) *Tensor {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	outH := (h-k)/stride + 1
	outW := (w-k)/stride + 1
	out := New(c, outH, outW)
	MaxPool2DInto(out, x, k, stride)
	return out
}

// MaxPool2DInto is MaxPool2D writing into dst (shaped [C, outH, outW]).
func MaxPool2DInto(dst, x *Tensor, k, stride int) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	outH := (h-k)/stride + 1
	outW := (w-k)/stride + 1
	if len(dst.Data) < c*outH*outW {
		panic("tensor: maxpool dst too small")
	}
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := float32(math.Inf(-1))
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						v := x.Data[ch*h*w+(oy*stride+ky)*w+(ox*stride+kx)]
						if v > best {
							best = v
						}
					}
				}
				dst.Data[ch*outH*outW+oy*outW+ox] = best
			}
		}
	}
}

// AvgPoolGrid divides each channel into a gy×gx grid and averages within
// each cell, producing a [C, gy, gx] tensor. AvgPoolGrid(x, 1, 1) is global
// average pooling; larger grids preserve coarse spatial structure for the
// classifier heads.
func AvgPoolGrid(x *Tensor, gy, gx int) *Tensor {
	out := New(x.Shape[0], gy, gx)
	AvgPoolGridInto(out, x, gy, gx)
	return out
}

// AvgPoolGridInto is AvgPoolGrid writing into dst (shaped [C, gy, gx]).
func AvgPoolGridInto(dst, x *Tensor, gy, gx int) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	if gy <= 0 || gx <= 0 || gy > h || gx > w {
		panic(fmt.Sprintf("tensor: avgpool grid %dx%d on %dx%d", gy, gx, h, w))
	}
	if len(dst.Data) < c*gy*gx {
		panic("tensor: avgpool dst too small")
	}
	for ch := 0; ch < c; ch++ {
		for cy := 0; cy < gy; cy++ {
			y0, y1 := cy*h/gy, (cy+1)*h/gy
			for cx := 0; cx < gx; cx++ {
				x0, x1 := cx*w/gx, (cx+1)*w/gx
				var sum float32
				for yy := y0; yy < y1; yy++ {
					for xx := x0; xx < x1; xx++ {
						sum += x.Data[ch*h*w+yy*w+xx]
					}
				}
				dst.Data[ch*gy*gx+cy*gx+cx] = sum / float32((y1-y0)*(x1-x0))
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
			s += row[i] * v
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
