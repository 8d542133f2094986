package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func approx(a, b float32) bool { return math.Abs(float64(a-b)) < 1e-4 }

func TestNewAndFromSlice(t *testing.T) {
	x := New(2, 3)
	if x.Len() != 6 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("bad tensor %+v", x)
	}
	y := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if y.Data[3] != 4 {
		t.Error("FromSlice data wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("FromSlice accepted mismatched length")
		}
	}()
	FromSlice([]float32{1}, 2, 2)
}

func TestClone(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3) // 2x3
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b, 2, 3, 2)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if !approx(c.Data[i], want[i]) {
			t.Fatalf("C[%d] = %v, want %v", i, c.Data[i], want[i])
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4)
	for i := range a.Data {
		a.Data[i] = rng.Float32()
	}
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Data[i*4+i] = 1
	}
	c := MatMul(a, id, 4, 4, 4)
	for i := range a.Data {
		if !approx(c.Data[i], a.Data[i]) {
			t.Fatal("A·I != A")
		}
	}
}

// naiveConv is a direct convolution reference implementation.
func naiveConv(x, w *Tensor, bias []float32, stride, pad int) *Tensor {
	outC, inC, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	h, wid := x.Shape[1], x.Shape[2]
	outH := (h+2*pad-kh)/stride + 1
	outW := (wid+2*pad-kw)/stride + 1
	out := New(outC, outH, outW)
	for o := 0; o < outC; o++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var s float32
				for c := 0; c < inC; c++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
							if iy < 0 || iy >= h || ix < 0 || ix >= wid {
								continue
							}
							s += x.Data[c*h*wid+iy*wid+ix] * w.Data[((o*inC+c)*kh+ky)*kw+kx]
						}
					}
				}
				if bias != nil {
					s += bias[o]
				}
				out.Data[o*outH*outW+oy*outW+ox] = s
			}
		}
	}
	return out
}

// toHWC returns the CHW tensor x channel-last.
func toHWC(x *Tensor) *Tensor {
	out := New(x.Shape[1], x.Shape[2], x.Shape[0])
	HWCInto(out, x)
	return out
}

// toCHW returns the HWC tensor x channel-first.
func toCHW(x *Tensor) *Tensor {
	h, w, c := x.Shape[0], x.Shape[1], x.Shape[2]
	out := New(c, h, w)
	for i := 0; i < h*w; i++ {
		for ch := 0; ch < c; ch++ {
			out.Data[ch*h*w+i] = x.Data[i*c+ch]
		}
	}
	return out
}

// convCase is one convolution shape of the bit-exact reference tests.
type convCase struct{ inC, outC, h, w, k, stride, pad int }

// convCases covers every ResNet conv shape (stem, block, strided block,
// projection) and odd ones: pad wider than the kernel, 1-pixel and 1-row
// inputs, stride 3, and an even kernel. The last six reach every fragment
// of the in-place GEMM: K over three gemmKC panels, an outC that needs a
// 16-wide tile, an 8-wide tile and scalar columns, products big enough for
// the parallel band path (m·k·n ≥ 2^18) whose M — and, at two workers,
// whose bands — leave row remainders of 1, 2 and 3, and a 1×1/s2/p0 conv
// whose last pixel reads the last element of x.Data.
var convCases = []convCase{
	{1, 16, 48, 64, 5, 2, 2},  // stem 5×5/s2/p2
	{16, 16, 24, 32, 3, 1, 1}, // block conv 3×3/s1/p1
	{16, 32, 24, 32, 3, 2, 1}, // downsampling block conv 3×3/s2/p1
	{16, 32, 24, 32, 1, 2, 0}, // projection shortcut 1×1/s2/p0
	{32, 64, 12, 16, 3, 2, 1},
	{3, 8, 9, 7, 3, 2, 1},
	{2, 2, 5, 5, 1, 1, 0},
	{4, 6, 12, 12, 5, 2, 2},
	{2, 3, 6, 5, 3, 1, 4}, // pad wider than the kernel
	{3, 4, 1, 1, 3, 1, 1}, // 1-pixel input
	{2, 3, 1, 7, 3, 1, 1}, // 1-row input
	{3, 5, 11, 13, 3, 3, 1},
	{2, 4, 10, 9, 4, 3, 2},   // even kernel, stride 3
	{64, 64, 6, 8, 3, 1, 1},  // K = 576: three K panels
	{8, 27, 10, 12, 3, 1, 1}, // outC 27 = 16 + 8 + 3 columns
	{16, 32, 3, 23, 3, 1, 1}, // M = 69 (M%4 = 1; bands of 35 and 34)
	{16, 32, 6, 13, 3, 1, 1}, // M = 78 (M%4 = 2; bands of 39)
	{16, 32, 5, 15, 3, 1, 1}, // M = 75 (M%4 = 3; bands of 38 and 37)
	{8, 16, 9, 7, 1, 2, 0},   // 1×1/s2/p0 on odd extents
}

// randConv draws a case's input (about a quarter exact zeros, as after a
// ReLU), weights and bias.
func randConv(rng *rand.Rand, tc convCase) (x, w *Tensor, bias []float32) {
	x = New(tc.inC, tc.h, tc.w)
	for i := range x.Data {
		if rng.Intn(4) != 0 {
			x.Data[i] = rng.Float32()*2 - 1
		}
	}
	w = New(tc.outC, tc.inC, tc.k, tc.k)
	for i := range w.Data {
		w.Data[i] = rng.Float32()*2 - 1
	}
	bias = make([]float32, tc.outC)
	for i := range bias {
		bias[i] = rng.Float32() - 0.5
	}
	return x, w, bias
}

// randBN draws batch-norm statistics for c channels, with negative gammas so
// that a following ReLU sees both signs.
func randBN(rng *rand.Rand, c int) (gamma, beta, mean, variance []float32) {
	gamma, beta = make([]float32, c), make([]float32, c)
	mean, variance = make([]float32, c), make([]float32, c)
	for i := 0; i < c; i++ {
		gamma[i] = rng.Float32()*2 - 1
		beta[i] = rng.Float32() - 0.5
		mean[i] = rng.Float32() - 0.5
		variance[i] = rng.Float32() + 0.01
	}
	return gamma, beta, mean, variance
}

// poisonWorkspace pools NaN-filled buffers of every power-of-two size up to
// 2^20 in each of ws's pools, so that any element a kernel fails to write
// reads back as garbage.
func poisonWorkspace(ws *Workspace) {
	nan := float32(math.NaN())
	for n := 16; n <= 1<<20; n *= 2 {
		t := ws.Get(n)
		for i := range t.Data {
			t.Data[i] = nan
		}
		ws.Put(t)
		q := ws.GetI8(n)
		for i := range q.Data {
			q.Data[i] = -99
		}
		ws.PutI8(q)
		a := ws.GetI32(n)
		for i := range a.Data {
			a.Data[i] = -99999
		}
		ws.PutI32(a)
	}
}

// TestConv2DMatchesNaive requires the in-place GEMM convolution to equal
// the direct loop bit for bit: naiveConv adds the same products in the same
// (c, ky, kx) order, and the padding products it skips are zeros, which
// cannot change a sum that starts at +0. The convolution runs on the
// input channel-last and its output is compared channel-first. Conv2D
// allocates its scratch; Conv2DWS runs twice on one workspace whose pooled
// buffers start out poisoned.
func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ws := NewWorkspace()
	poisonWorkspace(ws)
	for _, tc := range convCases {
		x, w, bias := randConv(rng, tc)
		xh := toHWC(x)
		label := fmt.Sprintf("conv %+v", tc)
		want := naiveConv(x, w, bias, tc.stride, tc.pad)
		assertSameBits(t, label, toCHW(Conv2D(xh, w, bias, tc.stride, tc.pad)).Data, want.Data)
		for run := 0; run < 2; run++ {
			got := Conv2DWS(ws, xh, w, nil, Epilogue{Bias: bias}, tc.stride, tc.pad)
			assertSameBits(t, label+" workspace", toCHW(got).Data, want.Data)
			ws.Put(got)
		}
		assertSameBits(t, label+" nil bias", toCHW(Conv2D(xh, w, nil, tc.stride, tc.pad)).Data,
			naiveConv(x, w, nil, tc.stride, tc.pad).Data)
	}
}

// TestConvEpilogueMatchesUnfused checks the fused conv tail against the
// separate passes it replaces, bit for bit: conv + BN against naiveConv then
// BatchNormInto, conv + BN + ReLU against that then ReLUInto, and conv +
// BN + residual + ReLU against conv + BN, AddInto, then ReLUInto. The
// references run channel-last, on naiveConv's output converted. Each case
// runs twice on one workspace whose pooled buffers start out poisoned, so
// unwritten scratch (such as a padded border) shows on first use and on
// reuse.
func TestConvEpilogueMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws := NewWorkspace()
	poisonWorkspace(ws)
	for _, tc := range convCases {
		x, w, bias := randConv(rng, tc)
		xh := toHWC(x)
		wt := ConvWeightT(w)
		gamma, beta, mean, variance := randBN(rng, tc.outC)
		bn := toHWC(naiveConv(x, w, bias, tc.stride, tc.pad))
		BatchNormInto(bn, bn, gamma, beta, mean, variance, 1e-5)
		act := ReLU(bn)
		short := randTensor(rng, bn.Shape...)
		res := Add(bn, short)
		ReLUInto(res, res)

		label := fmt.Sprintf("conv %+v", tc)
		ep := Epilogue{Bias: bias, Gamma: gamma, Beta: beta, Mean: mean, Var: variance, Eps: 1e-5}
		for run := 0; run < 2; run++ {
			ep.ReLU = false
			got := Conv2DWS(ws, xh, w, wt, ep, tc.stride, tc.pad)
			assertSameBits(t, label+" +bn", got.Data, bn.Data)
			ep.ReLU = true
			gotAct := Conv2DWS(ws, xh, w, wt, ep, tc.stride, tc.pad)
			assertSameBits(t, label+" +bn+relu", gotAct.Data, act.Data)
			ep.Res = short.Data
			gotRes := Conv2DWS(ws, xh, w, wt, ep, tc.stride, tc.pad)
			ep.Res = nil
			assertSameBits(t, label+" +bn, add+relu", gotRes.Data, res.Data)
			ws.Put(got)
			ws.Put(gotAct)
			ws.Put(gotRes)
		}
	}
}

// TestConvBandsBitIdentical forces the GEMM's parallel row bands on every
// conv case's in-place operand, whatever GOMAXPROCS is, and requires the
// serial result bit for bit, at worker counts that do and do not divide M.
func TestConvBandsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range convCases {
		x, w, _ := randConv(rng, tc)
		wt := ConvWeightT(w)
		outH, outW := convOutDims([]int{tc.h, tc.w, tc.inC}, tc.k, tc.k, tc.stride, tc.pad)
		m, k := outH*outW, tc.inC*tc.k*tc.k
		hp, wp := tc.h+2*tc.pad, tc.w+2*tc.pad
		src := make([]float32, hp*wp*tc.inC)
		padInto(src, toHWC(x).Data, tc.h, tc.w, tc.inC, tc.pad)
		a := convA(src, make([]int32, k), tc.inC, hp, wp, tc.k, tc.k, tc.stride, outW)
		want := make([]float32, m*tc.outC)
		matMulRows(want, a, wt.Data, 0, m, k, tc.outC, ActiveKernel(), tail{})
		for _, workers := range []int{2, 3, 5} {
			got := make([]float32, m*tc.outC)
			matMulParallel(got, a, wt.Data, m, k, tc.outC, workers, ActiveKernel(), tail{})
			assertSameBits(t, fmt.Sprintf("conv %+v workers=%d", tc, workers), got, want)
		}
	}
}

// TestConvShortInputPanics requires a convolution whose input Data is
// shorter than its Shape to panic in Go rather than be read past: the asm
// kernels do not bounds-check, so gemm indexes the largest address any
// tile reads before entering them. At pad 0 that index is the only guard; at
// pad > 0 the padding copy trips first. Both inputs keep one element of
// spare capacity, where a slice expression could still reach. Each case
// runs under every kernel, twice on one poisoned workspace, and the int8
// convolution of the same short input must panic too.
func TestConvShortInputPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ws := NewWorkspace()
	poisonWorkspace(ws)
	for _, tc := range []convCase{
		{8, 16, 9, 7, 1, 2, 0},    // 1×1/s2/p0: the last pixel reads the last element
		{2, 4, 6, 5, 3, 1, 0},     // 3×3/s1/p0
		{16, 16, 24, 32, 3, 1, 1}, // 3×3/s1/p1
	} {
		x, w, bias := randConv(rng, tc)
		x = toHWC(x)
		x.Data = x.Data[:len(x.Data)-1]
		wq, wqp := QuantizeConvWeights(w)
		r := panicOf(func() { ws.Put(ConvI8WS(ws, x, wq, wqp.Scale, Epilogue{Bias: bias}, tc.k, tc.k, tc.stride, tc.pad)) })
		if _, ok := r.(runtime.Error); !ok {
			t.Fatalf("int8 conv %+v on %d of %d elements: recovered %v, want a runtime error",
				tc, len(x.Data), len(x.Data)+1, r)
		}
		for _, kern := range kernelMatrix {
			withKernel(t, kern, func() {
				for run := 0; run < 2; run++ {
					r := panicOf(func() { ws.Put(Conv2DWS(ws, x, w, nil, Epilogue{Bias: bias}, tc.stride, tc.pad)) })
					if _, ok := r.(runtime.Error); !ok {
						t.Fatalf("%v conv %+v on %d of %d elements: recovered %v, want a runtime error",
							kern, tc, len(x.Data), len(x.Data)+1, r)
					}
				}
			})
		}
	}
}

// panicOf returns what f panicked with, or nil when it returned.
func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

func TestIm2ColShape(t *testing.T) {
	x := New(8, 6, 2)
	cols, oh, ow := Im2Col(x, 3, 3, 1, 1)
	if oh != 8 || ow != 6 {
		t.Errorf("out = %dx%d", oh, ow)
	}
	if cols.Dim(0) != 48 || cols.Dim(1) != 18 {
		t.Errorf("cols shape %v", cols.Shape)
	}
}

func TestBatchNormKnown(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2, 1)
	got := BatchNorm(x, []float32{2}, []float32{1}, []float32{2.5}, []float32{1.25}, 0)
	// scale = 2/sqrt(1.25), y = (x-2.5)*scale + 1
	scale := 2 / float32(math.Sqrt(1.25))
	for i, xv := range x.Data {
		want := (xv-2.5)*scale + 1
		if !approx(got.Data[i], want) {
			t.Fatalf("bn[%d] = %v, want %v", i, got.Data[i], want)
		}
	}

	// Channel-last with 2 and 3 channels: each channel's parameters must
	// reach every pixel's element of that channel and no other. The
	// statistics make scale and shift exact (ch0 of the 2-channel case:
	// y = 2x − 3, ch1: y = 1.5x − 16).
	for _, c := range []struct {
		x, want               []float32
		shape                 []int
		gamma, beta, mean, vr []float32
	}{
		{[]float32{1, 10, 2, 20, 3, 30, 4, 40}, []float32{-1, -1, 1, 14, 3, 29, 5, 44}, []int{2, 2, 2},
			[]float32{2, 3}, []float32{1, -1}, []float32{2, 10}, []float32{1, 4}},
		{[]float32{1, 2, 3, 4, 5, 6}, []float32{1, 1, 0.5, 4, 4, 6.5}, []int{1, 2, 3},
			[]float32{1, 2, 8}, []float32{0, 0, 0.5}, []float32{0, 1, 3}, []float32{1, 4, 16}},
	} {
		got := BatchNorm(FromSlice(c.x, c.shape...), c.gamma, c.beta, c.mean, c.vr, 0)
		for i, w := range c.want {
			if got.Data[i] != w {
				t.Fatalf("%d-channel bn = %v, want %v", c.shape[2], got.Data, c.want)
			}
		}
	}
}

func TestReLU(t *testing.T) {
	x := FromSlice([]float32{-1, 0, 2, -0.5}, 4)
	y := ReLU(x)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatal("ReLU wrong")
		}
	}
	if x.Data[0] != -1 {
		t.Error("ReLU mutated input")
	}

	// The branch-free rectifier must agree with a v < 0 compare on every
	// bit-pattern class: signed zeros, subnormals, infinities, and NaNs of
	// both signs, which all pass through unchanged.
	edges := []uint32{
		0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007fffff, 0x807fffff,
		0x3f800000, 0xbf800000, 0x7f7fffff, 0xff7fffff, 0x7f800000, 0xff800000,
		0x7f800001, 0xff800001, 0x7fc00000, 0xffc00000, 0x7fffffff, 0xffffffff,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		edges = append(edges, rng.Uint32())
	}
	in := New(len(edges))
	ref := make([]float32, len(edges))
	for i, u := range edges {
		v := math.Float32frombits(u)
		in.Data[i] = v
		if v < 0 {
			v = 0
		}
		ref[i] = v
	}
	assertSameBits(t, "relu bits", ReLU(in).Data, ref)
}

func TestAdd(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := FromSlice([]float32{10, 20}, 2)
	z := Add(x, y)
	if z.Data[0] != 11 || z.Data[1] != 22 {
		t.Error("Add wrong")
	}
}

func TestAvgPoolGrid(t *testing.T) {
	x := FromSlice([]float32{
		1, 1, 3, 3,
		1, 1, 3, 3,
		5, 5, 7, 7,
		5, 5, 7, 7,
	}, 4, 4, 1)
	g := AvgPoolGrid(x, 2, 2)
	want := []float32{1, 3, 5, 7}
	for i := range want {
		if !approx(g.Data[i], want[i]) {
			t.Fatalf("grid = %v", g.Data)
		}
	}
	// Global average.
	glob := AvgPoolGrid(x, 1, 1)
	if !approx(glob.Data[0], 4) {
		t.Errorf("global avg = %v", glob.Data[0])
	}

	// Channel-last input, [C, gy, gx] output. 2 channels on 4×4: ch0 the
	// quadrants above, ch1 = 4y + x. 3 channels on 2×3 in a 1×3 grid (one
	// column per cell): 100·ch + 10y + x averages to 100·ch + 5 + x.
	hwc := func(h, w, c int, f func(y, x, ch int) float32) *Tensor {
		t := New(h, w, c)
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				for ch := 0; ch < c; ch++ {
					t.Data[(y*w+xx)*c+ch] = f(y, xx, ch)
				}
			}
		}
		return t
	}
	for _, c := range []struct {
		x      *Tensor
		gy, gx int
		want   []float32
	}{
		{hwc(4, 4, 2, func(y, xx, ch int) float32 {
			if ch == 0 {
				return x.Data[y*4+xx]
			}
			return float32(4*y + xx)
		}), 2, 2, []float32{1, 3, 5, 7, 2.5, 4.5, 10.5, 12.5}},
		{hwc(4, 4, 2, func(y, xx, ch int) float32 { return float32(4*y + xx + 16*ch) }), 1, 1, []float32{7.5, 23.5}},
		{hwc(2, 3, 3, func(y, xx, ch int) float32 { return float32(100*ch + 10*y + xx) }), 1, 3,
			[]float32{5, 6, 7, 105, 106, 107, 205, 206, 207}},
	} {
		g := AvgPoolGrid(c.x, c.gy, c.gx)
		for i, w := range c.want {
			if g.Data[i] != w {
				t.Fatalf("%d-channel %dx%d grid = %v, want %v", c.x.Shape[2], c.gy, c.gx, g.Data, c.want)
			}
		}
	}
}

func TestLinear(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	w := FromSlice([]float32{1, 0, 0, 0, 1, 1}, 2, 3)
	y := Linear(x, w, []float32{10, 20})
	if !approx(y.Data[0], 11) || !approx(y.Data[1], 25) {
		t.Errorf("linear = %v", y.Data)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	x := []float32{1, 2, 3}
	s := Softmax(x)
	var sum float32
	for _, v := range s {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax value %v out of (0,1)", v)
		}
		sum += v
	}
	if !approx(sum, 1) {
		t.Errorf("softmax sum = %v", sum)
	}
	if !(s[2] > s[1] && s[1] > s[0]) {
		t.Error("softmax not order-preserving")
	}
	// Large values must not overflow.
	s = Softmax([]float32{1000, 1001, 999})
	if math.IsNaN(float64(s[0])) {
		t.Error("softmax overflowed")
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float32{0.1, 0.7, 0.2}) != 1 {
		t.Error("argmax wrong")
	}
	if Argmax([]float32{5}) != 0 {
		t.Error("single-element argmax wrong")
	}
}

// Property: softmax is invariant to constant shifts.
func TestSoftmaxShiftInvariant(t *testing.T) {
	f := func(a, b, c int16, shift int16) bool {
		x := []float32{float32(a) / 100, float32(b) / 100, float32(c) / 100}
		y := make([]float32, 3)
		for i := range x {
			y[i] = x[i] + float32(shift)/100
		}
		sx, sy := Softmax(x), Softmax(y)
		for i := range sx {
			if math.Abs(float64(sx[i]-sy[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: matmul distributes over addition: (A+B)·C == A·C + B·C.
func TestMatMulLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 3+rng.Intn(5), 3+rng.Intn(5), 3+rng.Intn(5)
		mk := func() *Tensor {
			t := New(m, k)
			for i := range t.Data {
				t.Data[i] = rng.Float32() - 0.5
			}
			return t
		}
		a, b := mk(), mk()
		c := New(k, n)
		for i := range c.Data {
			c.Data[i] = rng.Float32() - 0.5
		}
		left := MatMul(Add(a, b), c, m, k, n)
		right := Add(MatMul(a, c, m, k, n), MatMul(b, c, m, k, n))
		for i := range left.Data {
			if !approx(left.Data[i], right.Data[i]) {
				t.Fatalf("linearity violated at %d", i)
			}
		}
	}
}
