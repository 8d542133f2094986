// Package dnn implements the TrailNet-style dual-headed ResNet controllers
// the paper trains for visual trail navigation (§4.2.2, Figure 8): a
// convolutional backbone feeding two 3-class softmax heads, one classifying
// the UAV's angle relative to the trail and one its lateral offset.
//
// Substitution note (see DESIGN.md): the paper trains full-resolution
// PyTorch ResNets on AirSim renders and exports them via ONNX. Here the
// networks are built and trained from scratch in Go on images rendered by
// internal/env — spatially reduced (64×48 grayscale) with thin channel
// widths so pure-Go inference stays tractable; the SoC timing model scales
// compute back to paper-scale MAC counts (soc.Params.WorkloadScale).
package dnn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// OpKind classifies an operation for the SoC timing model.
type OpKind int

const (
	// OpMatMul is a dense matrix multiply (conv lowering or FC), the part
	// Gemmini accelerates.
	OpMatMul OpKind = iota
	// OpStream is a bandwidth-bound CPU pass (im2col, BN, ReLU, pooling).
	OpStream
)

// OpDesc describes one operation of a layer for cycle pricing.
type OpDesc struct {
	Kind    OpKind
	M, K, N int    // matmul dimensions (valid when Kind == OpMatMul)
	Bytes   uint64 // bytes streamed (valid when Kind == OpStream)
}

// MACs returns the multiply-accumulate count of a matmul op.
func (o OpDesc) MACs() uint64 {
	if o.Kind != OpMatMul {
		return 0
	}
	return uint64(o.M) * uint64(o.K) * uint64(o.N)
}

// Layer is one backbone stage: a functional forward pass plus a timing
// description under shape propagation.
//
// Forward takes and returns channel-last activations, shaped [H, W, C].
// It draws scratch and output buffers from ws; a nil ws allocates fresh
// tensors (the original behavior). The returned tensor is ws-owned —
// callers release it with ws.Put once consumed. Inputs are never written.
type Layer interface {
	Forward(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor
	// Describe returns the layer's operations for input shape (c,h,w) and
	// the output shape.
	Describe(c, h, w int) ([]OpDesc, [3]int)
}

const f32 = 4 // bytes per element

// Conv is a 2-D convolution layer.
type Conv struct {
	W      *tensor.Tensor // OIHW
	Bias   []float32
	Stride int
	Pad    int

	// wt caches ConvWeightT(W), rebuilt lazily after gob decoding (gob skips
	// unexported fields). Conv weights are frozen after construction, so the
	// cache never goes stale; the Once makes concurrent first use safe when
	// a trained net is shared across inference goroutines.
	wt     *tensor.Tensor
	wtOnce sync.Once

	// wq caches W quantized per tensor and packed for the int8 GEMM
	// (tensor.QuantizeConvWeights), Gemmini's native low-precision mode.
	// Weights are packed once, at first int8 use, like the transpose cache.
	wq      *tensor.PackedI8
	wqScale float32
	wqOnce  sync.Once
}

// NewConv builds a conv layer with He-normal weights from rng.
func NewConv(rng *rand.Rand, outC, inC, k, stride, pad int) *Conv {
	w := tensor.New(outC, inC, k, k)
	std := math.Sqrt(2.0 / float64(inC*k*k))
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64() * std)
	}
	return &Conv{W: w, Bias: make([]float32, outC), Stride: stride, Pad: pad}
}

// weightT returns the cached [inC*KH*KW, outC] transpose of W.
func (l *Conv) weightT() *tensor.Tensor {
	l.wtOnce.Do(func() { l.wt = tensor.ConvWeightT(l.W) })
	return l.wt
}

// Forward implements Layer.
func (l *Conv) Forward(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	return l.forward(x, ws, PrecisionFP32, nil, nil, false)
}

// quantWeights returns the cached packed int8 quantization of W and its
// scale.
func (l *Conv) quantWeights() (*tensor.PackedI8, float32) {
	l.wqOnce.Do(func() {
		var qp tensor.QuantParams
		l.wq, qp = tensor.QuantizeConvWeights(l.W)
		l.wqScale = qp.Scale
	})
	return l.wq, l.wqScale
}

// forward runs the convolution of the HWC input x on the prec datapath and
// finishes it, in the GEMM, with the bias, then bn (when non-nil), then the
// residual res (when non-nil), then ReLU (when relu is set): bit-identical
// to the separate BatchNorm, add and ReLU passes applied to the plain
// convolution. The int8 datapath (tensor.ConvI8WS) is exactly reproducible
// everywhere: exact int32 sums, then separately rounded float32 steps.
func (l *Conv) forward(x *tensor.Tensor, ws *tensor.Workspace, prec Precision, bn *BatchNorm, res *tensor.Tensor, relu bool) *tensor.Tensor {
	ep := tensor.Epilogue{Bias: l.Bias, ReLU: relu}
	if bn != nil {
		ep.Gamma, ep.Beta, ep.Mean, ep.Var, ep.Eps = bn.Gamma, bn.Beta, bn.Mean, bn.Var, bnEps
	}
	if res != nil {
		ep.Res = res.Data
	}
	if prec != PrecisionInt8 {
		return tensor.Conv2DWS(ws, x, l.W, l.weightT(), ep, l.Stride, l.Pad)
	}
	if inC := l.W.Shape[1]; x.Shape[2] != inC {
		panic(fmt.Sprintf("dnn: conv input has %d channels, weights expect %d", x.Shape[2], inC))
	}
	wq, sw := l.quantWeights()
	return tensor.ConvI8WS(ws, x, wq, sw, ep, l.W.Shape[2], l.W.Shape[3], l.Stride, l.Pad)
}

// outDims returns the output extent for an h×w input.
func (l *Conv) outDims(h, w int) (outH, outW int) {
	kh, kw := l.W.Shape[2], l.W.Shape[3]
	return (h+2*l.Pad-kh)/l.Stride + 1, (w+2*l.Pad-kw)/l.Stride + 1
}

// Describe implements Layer.
func (l *Conv) Describe(c, h, w int) ([]OpDesc, [3]int) {
	outC, k := l.W.Shape[0], l.W.Shape[2]
	outH, outW := l.outDims(h, w)
	m := outH * outW
	kk := c * k * k
	ops := []OpDesc{
		// im2col materialization on the target's CPU. The modelled
		// software stack lowers every conv, even though the host's fp32
		// conv reads its patches in place.
		{Kind: OpStream, Bytes: uint64(m*kk) * f32},
		{Kind: OpMatMul, M: m, K: kk, N: outC},
	}
	return ops, [3]int{outC, outH, outW}
}

// bnEps is the variance epsilon of every batch-norm layer.
const bnEps = 1e-5

// BatchNorm is inference-mode batch normalization.
type BatchNorm struct {
	Gamma, Beta, Mean, Var []float32
}

// NewBatchNorm builds an identity-initialized BN for c channels; statistics
// are typically set afterwards by CalibrateBN.
func NewBatchNorm(c int) *BatchNorm {
	bn := &BatchNorm{
		Gamma: make([]float32, c),
		Beta:  make([]float32, c),
		Mean:  make([]float32, c),
		Var:   make([]float32, c),
	}
	for i := 0; i < c; i++ {
		bn.Gamma[i] = 1
		bn.Var[i] = 1
	}
	return bn
}

// Forward implements Layer.
func (l *BatchNorm) Forward(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	out := ws.Get(x.Shape...)
	tensor.BatchNormInto(out, x, l.Gamma, l.Beta, l.Mean, l.Var, bnEps)
	return out
}

// Describe implements Layer.
func (l *BatchNorm) Describe(c, h, w int) ([]OpDesc, [3]int) {
	return []OpDesc{{Kind: OpStream, Bytes: uint64(c*h*w) * 2 * f32}}, [3]int{c, h, w}
}

// ReLU is the rectifier activation.
type ReLU struct{}

// Forward implements Layer.
func (ReLU) Forward(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	out := ws.Get(x.Shape...)
	tensor.ReLUInto(out, x)
	return out
}

// Describe implements Layer.
func (ReLU) Describe(c, h, w int) ([]OpDesc, [3]int) {
	return []OpDesc{{Kind: OpStream, Bytes: uint64(c*h*w) * 2 * f32}}, [3]int{c, h, w}
}

// Block is a ResNet basic block: conv-BN-ReLU-conv-BN plus a (possibly
// projected) shortcut, followed by ReLU.
type Block struct {
	Conv1 *Conv
	BN1   *BatchNorm
	Conv2 *Conv
	BN2   *BatchNorm
	// Down projects the shortcut when shape changes (1×1 conv + BN).
	Down   *Conv
	DownBN *BatchNorm
}

// NewBlock builds a basic block inC→outC with the given stride on the first
// conv (stride > 1 and/or channel change adds the projection shortcut).
func NewBlock(rng *rand.Rand, inC, outC, stride int) *Block {
	b := &Block{
		Conv1: NewConv(rng, outC, inC, 3, stride, 1),
		BN1:   NewBatchNorm(outC),
		Conv2: NewConv(rng, outC, outC, 3, 1, 1),
		BN2:   NewBatchNorm(outC),
	}
	// Down-weight the residual branch so each block is a near-identity
	// refinement: with frozen (untrained) convolutions a full-strength
	// random branch scrambles the signal layer by layer, whereas the paper's
	// trained networks refine it. 0.3 keeps information flowing down the
	// shortcut while the branch adds higher-order features (akin to zero-init
	// residual gamma, a standard ResNet training trick).
	for i := range b.BN2.Gamma {
		b.BN2.Gamma[i] = 0.3
	}
	if stride != 1 || inC != outC {
		b.Down = NewConv(rng, outC, inC, 1, stride, 0)
		b.DownBN = NewBatchNorm(outC)
	}
	return b
}

// Forward implements Layer.
func (b *Block) Forward(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	return b.forward(x, ws, PrecisionFP32)
}

// forward runs the block on the prec datapath: on int8, both branch
// convolutions and the projection shortcut, while BN, ReLU and the
// residual add stay float32 (the interleaved normalization keeps per-layer
// requantization well-conditioned, as Gemmini offloads the GEMMs while the
// host handles the glue). Each conv applies its BN
// in the GEMM that computes it, the first branch conv its ReLU too, and the
// second the residual add and the final ReLU after its BN: the same
// per-element operations in the same order as conv → BN → ReLU → conv →
// BN, add, ReLU, so the result is bit-identical to the unfused layers.
func (b *Block) forward(x *tensor.Tensor, ws *tensor.Workspace, prec Precision) *tensor.Tensor {
	y := b.Conv1.forward(x, ws, prec, b.BN1, nil, true)
	short := x
	if b.Down != nil {
		short = b.Down.forward(x, ws, prec, b.DownBN, nil, false)
	}
	z := b.Conv2.forward(y, ws, prec, b.BN2, short, true)
	ws.Put(y)
	if short != x {
		ws.Put(short)
	}
	return z
}

// Describe implements Layer.
func (b *Block) Describe(c, h, w int) ([]OpDesc, [3]int) {
	ops, s := b.Conv1.Describe(c, h, w)
	add := func(more []OpDesc, ns [3]int) {
		ops = append(ops, more...)
		s = ns
	}
	o, ns := b.BN1.Describe(s[0], s[1], s[2])
	add(o, ns)
	o, ns = ReLU{}.Describe(s[0], s[1], s[2])
	add(o, ns)
	o, ns = b.Conv2.Describe(s[0], s[1], s[2])
	add(o, ns)
	o, ns = b.BN2.Describe(s[0], s[1], s[2])
	add(o, ns)
	if b.Down != nil {
		dOps, _ := b.Down.Describe(c, h, w)
		ops = append(ops, dOps...)
		dbOps, _ := b.DownBN.Describe(s[0], s[1], s[2])
		ops = append(ops, dbOps...)
	}
	// Residual add + final ReLU.
	ops = append(ops, OpDesc{Kind: OpStream, Bytes: uint64(s[0]*s[1]*s[2]) * 3 * f32})
	return ops, s
}

// Dense is a fully-connected head.
type Dense struct {
	W *tensor.Tensor // [out, in]
	B []float32
}

// NewDense builds a zero-initialized dense layer (heads start untrained).
func NewDense(out, in int) *Dense {
	return &Dense{W: tensor.New(out, in), B: make([]float32, out)}
}

// Forward applies the layer to a flat feature vector.
func (l *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.Linear(x, l.W, l.B)
}

// Describe reports the head's matmul (a 1×in×out GEMM).
func (l *Dense) Describe() OpDesc {
	return OpDesc{Kind: OpMatMul, M: 1, K: l.W.Shape[1], N: l.W.Shape[0]}
}

func (l *Dense) check(in int) error {
	if l.W.Shape[1] != in {
		return fmt.Errorf("dnn: head expects %d features, got %d", l.W.Shape[1], in)
	}
	return nil
}
