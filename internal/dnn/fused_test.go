package dnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// directConv is the reference convolution: per output element, the
// products over (c, ky, kx) in that order, skipping padding, summed from
// zero, then the bias. On fp32 the sum is float32; on int8 it is the exact
// int32 sum of the per-tensor quantized input and weights (quantized here
// from W, independently of the conv's packed cache), dequantized as
// float32(acc)*d + bias.
func directConv(l *Conv, x *tensor.Tensor, prec Precision) *tensor.Tensor {
	outC, inC, kh, kw := l.W.Shape[0], l.W.Shape[1], l.W.Shape[2], l.W.Shape[3]
	h, w := x.Shape[1], x.Shape[2]
	outH, outW := l.outDims(h, w)
	out := tensor.New(outC, outH, outW)
	var qx, wq *tensor.I8
	var d float32
	if prec == PrecisionInt8 {
		qp := tensor.ChooseQuantParams(x.Data)
		qx = tensor.NewI8(x.Shape...)
		tensor.QuantizeInto(qx, x, qp)
		var wqp tensor.QuantParams
		wq, wqp = tensor.QuantizeTensor(tensor.ConvWeightT(l.W)) // [inC*kh*kw, outC]
		d = qp.Scale * wqp.Scale
	}
	for o := 0; o < outC; o++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var s float32
				var acc int32
				for c := 0; c < inC; c++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*l.Stride+ky-l.Pad, ox*l.Stride+kx-l.Pad
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							j := (c*kh+ky)*kw + kx
							if prec == PrecisionInt8 {
								acc += int32(qx.Data[(c*h+iy)*w+ix]) * int32(wq.Data[j*outC+o])
							} else {
								s += x.Data[(c*h+iy)*w+ix] * l.W.Data[o*inC*kh*kw+j]
							}
						}
					}
				}
				if prec == PrecisionInt8 {
					s = float32(acc)*d + l.Bias[o]
				} else {
					s += l.Bias[o]
				}
				out.Data[(o*outH+oy)*outW+ox] = s
			}
		}
	}
	return out
}

// toHWC returns the CHW tensor x channel-last.
func toHWC(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape[1], x.Shape[2], x.Shape[0])
	tensor.HWCInto(out, x)
	return out
}

// toCHW returns the HWC tensor x channel-first.
func toCHW(x *tensor.Tensor) *tensor.Tensor {
	h, w, c := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c, h, w)
	for i := 0; i < h*w; i++ {
		for ch := 0; ch < c; ch++ {
			out.Data[ch*h*w+i] = x.Data[i*c+ch]
		}
	}
	return out
}

// unfusedBlock is the block's reference dataflow: direct convolutions of
// the CHW input x and the separate BatchNormInto, ReLUInto and AddInto
// passes, run channel-last; it returns the block's HWC output.
func unfusedBlock(b *Block, x *tensor.Tensor, prec Precision) *tensor.Tensor {
	bn := func(t *tensor.Tensor, l *BatchNorm) {
		tensor.BatchNormInto(t, t, l.Gamma, l.Beta, l.Mean, l.Var, 1e-5)
	}
	y := toHWC(directConv(b.Conv1, x, prec))
	bn(y, b.BN1)
	tensor.ReLUInto(y, y)
	z := toHWC(directConv(b.Conv2, toCHW(y), prec))
	bn(z, b.BN2)
	short := toHWC(x)
	if b.Down != nil {
		short = toHWC(directConv(b.Down, x, prec))
		bn(short, b.DownBN)
	}
	tensor.AddInto(z, z, short)
	tensor.ReLUInto(z, z)
	return z
}

// randomizeConv gives a conv a nonzero bias, so the order of bias and
// batch norm shows.
func randomizeConv(rng *rand.Rand, l *Conv) {
	for i := range l.Bias {
		l.Bias[i] = rng.Float32() - 0.5
	}
}

// randomizeBN draws statistics with negative gammas, so the ReLU sees both
// signs.
func randomizeBN(rng *rand.Rand, l *BatchNorm) {
	for i := range l.Gamma {
		l.Gamma[i] = rng.Float32()*2 - 1
		l.Beta[i] = rng.Float32() - 0.5
		l.Mean[i] = rng.Float32() - 0.5
		l.Var[i] = rng.Float32() + 0.01
	}
}

// poisonedWorkspace returns a workspace whose pools hold garbage-filled
// buffers of every power-of-two size up to 2^20, so that any scratch
// element a forward pass fails to write (a padded border, say) reads back
// as garbage.
func poisonedWorkspace() *tensor.Workspace {
	ws := tensor.NewWorkspace()
	for n := 16; n <= 1<<20; n *= 2 {
		f, q, a := ws.Get(n), ws.GetI8(n), ws.GetI32(n)
		for i := 0; i < n; i++ {
			f.Data[i], q.Data[i], a.Data[i] = float32(math.NaN()), -99, -99999
		}
		ws.Put(f)
		ws.PutI8(q)
		ws.PutI32(a)
	}
	return ws
}

func assertBits(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d elements, want %d", label, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestBlockFusedMatchesUnfused checks the fused conv epilogues — bias, BN
// and ReLU in each conv's output pass, the residual add and final ReLU in
// one — against direct convolutions followed by the separate tensor passes,
// bit for bit, on both datapaths: float32 sums on fp32, exact int32 sums
// then dequantize on int8. It covers both shortcut kinds, every ResNet conv
// shape, and a 1-pixel input, plus the stem's plain conv, each run twice on
// one poisoned workspace. The layers run on the input channel-last and
// their outputs are compared channel-last.
func TestBlockFusedMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	randInput := func(c, h, w int) *tensor.Tensor {
		x := tensor.New(c, h, w)
		for i := range x.Data {
			if rng.Intn(4) != 0 {
				x.Data[i] = rng.Float32()*2 - 1
			}
		}
		return x
	}
	check := func(label string, l Layer, x *tensor.Tensor, want func(Precision) *tensor.Tensor) {
		for _, prec := range []Precision{PrecisionFP32, PrecisionInt8} {
			ref := want(prec)
			ws := poisonedWorkspace()
			for run := 0; run < 2; run++ {
				got := forwardLayer(l, toHWC(x), ws, prec)
				assertBits(t, fmt.Sprintf("%s %v run %d", label, prec, run), got, ref)
				ws.Put(got)
			}
		}
	}
	for _, tc := range []struct{ inC, outC, h, w, stride int }{
		{16, 16, 24, 32, 1}, // identity shortcut
		{16, 32, 24, 32, 2}, // projection shortcut: 3×3/s2/p1 and 1×1/s2/p0
		{3, 5, 7, 9, 2},
		{4, 4, 1, 1, 1}, // 1-pixel input
	} {
		b := NewBlock(rng, tc.inC, tc.outC, tc.stride)
		for _, l := range []*Conv{b.Conv1, b.Conv2, b.Down} {
			if l != nil {
				randomizeConv(rng, l)
			}
		}
		for _, l := range []*BatchNorm{b.BN1, b.BN2, b.DownBN} {
			if l != nil {
				randomizeBN(rng, l)
			}
		}
		x := randInput(tc.inC, tc.h, tc.w)
		check(fmt.Sprintf("block %+v", tc), b, x, func(p Precision) *tensor.Tensor { return unfusedBlock(b, x, p) })
	}
	stem := NewConv(rng, 16, 1, 5, 2, 2)
	randomizeConv(rng, stem)
	x := randInput(1, 48, 64)
	check("stem conv", stem, x, func(p Precision) *tensor.Tensor { return toHWC(directConv(stem, x, p)) })
}

// TestInt8ConvOddChannels checks int8 convolutions over 1, 3 and 5 input
// channels, whose quantized input carries a zero pad channel and whose
// packed weights carry zero rows for it, and over 2 and 4 without,
// against directConv's exact int32 sums, under every forceable kernel and
// twice on one poisoned workspace. The output channel counts leave every
// kind of column remainder to the tail: a whole 16-wide panel, 8, and
// scalar columns.
func TestInt8ConvOddChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	prev := tensor.ActiveKernel()
	defer tensor.ForceKernel(prev)
	for _, tc := range []struct{ inC, outC, k, stride, pad, h, w int }{
		{1, 16, 5, 2, 2, 48, 64}, // the stem
		{3, 27, 3, 1, 1, 9, 11},
		{5, 8, 3, 2, 1, 7, 10},
		{5, 13, 1, 2, 0, 6, 5},
		{2, 16, 3, 1, 1, 5, 6},
		{4, 3, 3, 1, 0, 4, 4},
	} {
		l := NewConv(rng, tc.outC, tc.inC, tc.k, tc.stride, tc.pad)
		randomizeConv(rng, l)
		x := tensor.New(tc.inC, tc.h, tc.w)
		for i := range x.Data {
			if rng.Intn(3) != 0 {
				x.Data[i] = rng.Float32()*2 - 1
			}
		}
		want := toHWC(directConv(l, x, PrecisionInt8))
		for _, k := range supportedKernels() {
			if err := tensor.ForceKernel(k); err != nil {
				t.Fatal(err)
			}
			ws := poisonedWorkspace()
			for run := 0; run < 2; run++ {
				got := forwardLayer(l, toHWC(x), ws, PrecisionInt8)
				assertBits(t, fmt.Sprintf("int8 conv %+v under %v run %d", tc, k, run), got, want)
				ws.Put(got)
			}
		}
	}
}
