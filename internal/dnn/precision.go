package dnn

import (
	"fmt"
	"strings"

	"repro/internal/tensor"
)

// Precision selects the inference datapath: full float32, or the int8
// quantized mode modeling Gemmini's native low-precision datapath. Int8
// quantizes convolution weights once at load and activations per image with
// per-tensor symmetric scales, accumulates in exact int32, and dequantizes
// between layers; the classifier heads (1×K×3 GEMMs, negligible compute)
// always run float32. The int8 path trades a bounded accuracy loss for
// lower simulated latency (internal/gemmini prices int8 GEMMs on the
// doubled-throughput mesh) — it is an accuracy-vs-latency knob, not a
// bit-exact transformation of the fp32 results. It is, however, exactly
// reproducible: int32 sums are kernel-invariant.
type Precision int

const (
	// PrecisionFP32 is the default full-precision datapath.
	PrecisionFP32 Precision = iota
	// PrecisionInt8 is the quantized datapath.
	PrecisionInt8
)

// String returns the canonical name used by the -precision flag and run
// metadata.
func (p Precision) String() string {
	switch p {
	case PrecisionFP32:
		return "fp32"
	case PrecisionInt8:
		return "int8"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision parses a precision name as accepted by the -precision
// flag. Matching is case-insensitive; an empty string means fp32.
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "fp32", "float32", "float":
		return PrecisionFP32, nil
	case "int8", "i8":
		return PrecisionInt8, nil
	}
	return PrecisionFP32, fmt.Errorf("dnn: unknown precision %q (want fp32 or int8)", s)
}

// forwardLayer runs one backbone layer on the selected datapath. Only conv
// compute has an int8 form; every other layer is float32 glue either way.
func forwardLayer(l Layer, x *tensor.Tensor, ws *tensor.Workspace, prec Precision) *tensor.Tensor {
	switch ll := l.(type) {
	case *Conv:
		return ll.forward(x, ws, prec, nil, nil, false)
	case *Block:
		return ll.forward(x, ws, prec)
	}
	return l.Forward(x, ws)
}

// FeaturesWSP runs the backbone on the selected precision datapath, pooling
// each tapped activation into the concatenated hypercolumn feature vector.
// The image, shaped [InC, H, W] with H, W at least the input's InH, InW
// (the backbone is fully convolutional and pools to a fixed grid), enters
// the backbone channel-last, and a Conv → BatchNorm → ReLU run (the stem)
// is one convolution with a BN+ReLU epilogue. Every activation and the
// returned vector are drawn from ws (nil ws allocates); the vector is
// ws-owned and bit-identical for any ws. ws must not be shared across
// goroutines — use one workspace per inference goroutine.
func (n *Net) FeaturesWSP(ws *tensor.Workspace, img *tensor.Tensor, prec Precision) *tensor.Tensor {
	f := ws.Get(n.featureDim())
	off := 0
	x := ws.Get(img.Shape[1], img.Shape[2], img.Shape[0])
	tensor.HWCInto(x, img)
	for i := 0; i < len(n.Backbone); i++ {
		var y *tensor.Tensor
		if conv, bn, ok := n.convBNReLU(i); ok {
			y = conv.forward(x, ws, prec, bn, nil, true)
			i += 2
		} else {
			y = forwardLayer(n.Backbone[i], x, ws, prec)
		}
		ws.Put(x)
		x = y
		if n.tapped(i) {
			tensor.AvgPoolGridInto(f.Data[off:], x, n.PoolGY, n.PoolGX)
			off += x.Shape[2] * n.PoolGY * n.PoolGX
		}
	}
	ws.Put(x)
	return f
}

// convBNReLU reports whether layers i to i+2 are a Conv, a BatchNorm and a
// ReLU with no tap between them, which run as one conv with a BN+ReLU tail.
func (n *Net) convBNReLU(i int) (*Conv, *BatchNorm, bool) {
	if i+2 >= len(n.Backbone) || n.tapped(i) || n.tapped(i+1) {
		return nil, nil, false
	}
	conv, ok := n.Backbone[i].(*Conv)
	bn, okBN := n.Backbone[i+1].(*BatchNorm)
	_, okReLU := n.Backbone[i+2].(ReLU)
	return conv, bn, ok && okBN && okReLU
}

// ForwardWSP runs a full inference on the selected precision datapath:
// backbone (quantized when prec is int8), pool, float32 heads, softmax.
// Every intermediate buffer comes from ws, so after warm-up a reused
// workspace makes inference allocation-free.
func (n *Net) ForwardWSP(ws *tensor.Workspace, img *tensor.Tensor, prec Precision) Output {
	f := n.FeaturesWSP(ws, img, prec)
	logits := ws.Get(3)
	var out Output
	tensor.LinearInto(logits, f, n.HeadLateral.W, n.HeadLateral.B)
	tensor.SoftmaxInto(out.Lateral[:], logits.Data)
	tensor.LinearInto(logits, f, n.HeadAngular.W, n.HeadAngular.B)
	tensor.SoftmaxInto(out.Angular[:], logits.Data)
	ws.Put(logits)
	ws.Put(f)
	return out
}
