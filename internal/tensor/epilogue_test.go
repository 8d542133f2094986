package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// tailForm is one shape of conv tail: which Epilogue steps it runs.
type tailForm struct {
	name           string
	nilBias, bn    bool
	residual, relu bool
}

// tailForms lists the tails the tests drive: bias only, nil bias, +BN,
// +BN+ReLU and +BN+residual+ReLU, and the bias and nil-bias forms with a
// ReLU too.
var tailForms = []tailForm{
	{name: "bias"},
	{name: "bias+relu", relu: true},
	{name: "nil bias", nilBias: true},
	{name: "nil bias+relu", nilBias: true, relu: true},
	{name: "+bn", bn: true},
	{name: "+bn+relu", bn: true, relu: true},
	{name: "+bn+res+relu", bn: true, residual: true, relu: true},
}

// epilogue returns the Epilogue of form f over the given parameters.
func (f tailForm) epilogue(bias, gamma, beta, mean, variance []float32, eps float32, res []float32) Epilogue {
	ep := Epilogue{Bias: bias, ReLU: f.relu}
	if f.nilBias {
		ep.Bias = nil
	}
	if f.bn {
		ep.Gamma, ep.Beta, ep.Mean, ep.Var, ep.Eps = gamma, beta, mean, variance, eps
	}
	if f.residual {
		ep.Res = res
	}
	return ep
}

// edgeTail is the scalar reference of form f on a pre-tail value v under
// TestTailEdgeBits's parameters: bias −0 (+0 when nil), scale 1, shift −0,
// residual −0.
func (f tailForm) edgeTail(v float32) float32 {
	negZero := float32(math.Copysign(0, -1))
	if f.nilBias {
		v += 0
	} else {
		v += negZero
	}
	if f.bn {
		v = float32(v*1) + negZero
	}
	if f.residual {
		v += negZero
	}
	if f.relu {
		v = reluPass(v, 0)
	}
	return v
}

// TestTailEdgeBits drives every tail form under every forced kernel on
// products whose pre-ReLU values are the rectifier's edge cases: −0, +0,
// negative denormals, −Inf and NaNs with the sign bit set, among ordinary
// values. With bias −0, batch norm of scale 1 and shift −0, and residual
// −0, every product reaches the ReLU unchanged (where a nil bias adds +0,
// −0 becomes +0 first), so the output must be reluPass's bits of the
// scalar reference. 27 columns give the AVX2 and SSE tails full vectors
// and the portable tail a remainder. A VMAXPS against zero (which flushes
// −0 and NaN to +0) fails this test, and so does running a nil Gamma as
// x·1 + 0 (which turns −0 into +0). The int8 source is driven too, its
// float32(acc)·d reaching −0, denormals, ±Inf and NaN through d.
func TestTailEdgeBits(t *testing.T) {
	edges := []uint32{
		0x80000000, 0x00000000, 0x80000001, 0x807fffff, 0xff800000, 0xffc00000,
		0xffc00001, 0x7f800000, 0x7fc00000, 0x00000001, 0x3f800000, 0xbf800000,
		0x7f7fffff, 0xff7fffff,
	}
	const rows, n = 5, 27
	prod := make([]float32, rows*n)
	for i := range prod {
		prod[i] = math.Float32frombits(edges[i%len(edges)])
	}
	negZero := float32(math.Copysign(0, -1))
	bias, gamma, beta := make([]float32, n), make([]float32, n), make([]float32, n)
	mean, variance, res := make([]float32, n), make([]float32, n), make([]float32, rows*n)
	for j := 0; j < n; j++ {
		bias[j], gamma[j], beta[j], mean[j], variance[j] = negZero, 1, negZero, 0, 1
	}
	for i := range res {
		res[i] = negZero
	}

	for _, f := range tailForms {
		ep := f.epilogue(bias, gamma, beta, mean, variance, 0, res)
		want := make([]float32, len(prod))
		for i, v := range prod {
			want[i] = f.edgeTail(v)
		}
		for _, kern := range kernelMatrix {
			if !KernelSupported(kern) {
				continue
			}
			tl := ep.resolve(make([]float32, 3*n), rows, n)
			got := append([]float32(nil), prod...)
			tl.apply(got, nil, 0, 0, rows, n, kern)
			assertSameBits(t, fmt.Sprintf("%s %v", f.name, kern), got, want)
		}
	}

	// The int8 source: float32(acc)·d, then the same steps.
	accs := []int32{0, -1, 1, 2, -3, 127 * 127 * 9, -(127 * 127 * 9)}
	for _, d := range []float32{-1, float32(math.Inf(1)), 1e-45, 0.5} {
		acc := make([]int32, rows*n)
		for i := range acc {
			acc[i] = accs[i%len(accs)]
		}
		for _, f := range tailForms {
			ep := f.epilogue(bias, gamma, beta, mean, variance, 0, res)
			tl := ep.resolve(make([]float32, 3*n), rows, n)
			want := make([]float32, len(acc))
			for i, a := range acc {
				want[i] = f.edgeTail(float32(float32(a) * d))
			}
			for _, kern := range kernelMatrix {
				if !KernelSupported(kern) {
					continue
				}
				got := make([]float32, len(acc))
				for i := range got {
					got[i] = float32(math.NaN())
				}
				tl.apply(got, acc, d, 0, rows, n, kern)
				assertSameBits(t, fmt.Sprintf("int8 %s d=%v %v", f.name, d, kern), got, want)
			}
		}
	}
}

// TestConvTailBands runs a 64→64 3×3 convolution, whose K of 576 spans
// three gemmKC panels, with every tail form through the GEMM's row bands
// forced at 2, 3 and 5 workers under every kernel, against naiveConv
// followed by the separate BatchNormInto, AddInto and ReLUInto passes. A
// tail applied before the last K panel, or applied twice (to a band's
// rows, or to a panel's), shows as a changed bit.
func TestConvTailBands(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tc := convCase{64, 64, 6, 9, 3, 1, 1}
	x, w, bias := randConv(rng, tc)
	wt := ConvWeightT(w)
	gamma, beta, mean, variance := randBN(rng, tc.outC)
	outH, outW := tc.h, tc.w
	m, k, n := outH*outW, tc.inC*tc.k*tc.k, tc.outC
	if k <= 2*gemmKC {
		t.Fatalf("K = %d spans fewer than three panels", k)
	}
	res := randTensor(rng, outH, outW, n)
	hp, wp := tc.h+2*tc.pad, tc.w+2*tc.pad
	src := make([]float32, hp*wp*tc.inC)
	padInto(src, toHWC(x).Data, tc.h, tc.w, tc.inC, tc.pad)
	a := convA(src, make([]int32, k), tc.inC, hp, wp, tc.k, tc.k, tc.stride, outW)

	for _, f := range tailForms {
		b := bias
		if f.nilBias {
			b = nil
		}
		want := toHWC(naiveConv(x, w, b, tc.stride, tc.pad))
		if f.bn {
			BatchNormInto(want, want, gamma, beta, mean, variance, 1e-5)
		}
		if f.residual {
			AddInto(want, want, res)
		}
		if f.relu {
			ReLUInto(want, want)
		}
		ep := f.epilogue(bias, gamma, beta, mean, variance, 1e-5, res.Data)
		for _, kern := range kernelMatrix {
			if !KernelSupported(kern) {
				continue
			}
			for _, workers := range []int{2, 3, 5} {
				got := make([]float32, m*n)
				matMulParallel(got, a, wt.Data, m, k, n, workers, kern, ep.resolve(make([]float32, 3*n), m, n))
				assertSameBits(t, fmt.Sprintf("%s %v workers=%d", f.name, kern, workers), got, want.Data)
			}
		}
	}
}
