package tensor

import (
	"fmt"
	"math"
	"math/rand"
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

// convCase is one convolution shape of the bit-exact reference tests.
type convCase struct{ inC, outC, h, w, k, stride, pad int }

// convCases covers every ResNet conv shape (stem, block, strided block,
// projection) and odd ones: pad wider than the kernel, 1-pixel and 1-row
// inputs, stride 3, and an even kernel.
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
	{2, 4, 10, 9, 4, 3, 2}, // even kernel, stride 3
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

// TestConv2DMatchesNaive requires the im2col + GEMM convolution to equal the
// direct loop bit for bit: naiveConv adds the same products in the same
// (c, ky, kx) order, and the padding products it skips are zeros, which
// cannot change a sum that starts at +0. Conv2D allocates its scratch;
// Conv2DWS runs twice on one workspace whose pooled buffers start out
// poisoned.
func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ws := NewWorkspace()
	poisonWorkspace(ws)
	for _, tc := range convCases {
		x, w, bias := randConv(rng, tc)
		label := fmt.Sprintf("conv %+v", tc)
		want := naiveConv(x, w, bias, tc.stride, tc.pad)
		assertSameBits(t, label, Conv2D(x, w, bias, tc.stride, tc.pad).Data, want.Data)
		for run := 0; run < 2; run++ {
			got := Conv2DWS(ws, x, w, nil, Epilogue{Bias: bias}, tc.stride, tc.pad)
			assertSameBits(t, label+" workspace", got.Data, want.Data)
			ws.Put(got)
		}
		assertSameBits(t, label+" nil bias", Conv2D(x, w, nil, tc.stride, tc.pad).Data,
			naiveConv(x, w, nil, tc.stride, tc.pad).Data)
	}
}

// TestConvEpilogueMatchesUnfused checks the fused conv tail against the
// separate passes it replaces, bit for bit: conv + BN against naiveConv then
// BatchNormInto, conv + BN + ReLU against that then ReLUInto, and the
// residual AddReLUInto against AddInto then ReLUInto. Each case runs twice
// on one workspace whose pooled buffers start out poisoned, so unwritten
// scratch (such as a padded border) shows on first use and on reuse.
func TestConvEpilogueMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws := NewWorkspace()
	poisonWorkspace(ws)
	for _, tc := range convCases {
		x, w, bias := randConv(rng, tc)
		wt := ConvWeightT(w)
		gamma, beta, mean, variance := randBN(rng, tc.outC)
		bn := naiveConv(x, w, bias, tc.stride, tc.pad)
		BatchNormInto(bn, bn, gamma, beta, mean, variance, 1e-5)
		act := ReLU(bn)
		short := randTensor(rng, bn.Shape...)
		res := Add(bn, short)
		ReLUInto(res, res)

		label := fmt.Sprintf("conv %+v", tc)
		ep := Epilogue{Bias: bias, Gamma: gamma, Beta: beta, Mean: mean, Var: variance, Eps: 1e-5}
		for run := 0; run < 2; run++ {
			ep.ReLU = false
			got := Conv2DWS(ws, x, w, wt, ep, tc.stride, tc.pad)
			assertSameBits(t, label+" +bn", got.Data, bn.Data)
			ep.ReLU = true
			gotAct := Conv2DWS(ws, x, w, wt, ep, tc.stride, tc.pad)
			assertSameBits(t, label+" +bn+relu", gotAct.Data, act.Data)
			AddReLUInto(got, got, short)
			assertSameBits(t, label+" +bn, add+relu", got.Data, res.Data)
			ws.Put(got)
			ws.Put(gotAct)
		}
	}
}

func TestIm2ColShape(t *testing.T) {
	x := New(2, 8, 6)
	cols, oh, ow := Im2Col(x, 3, 3, 1, 1)
	if oh != 8 || ow != 6 {
		t.Errorf("out = %dx%d", oh, ow)
	}
	if cols.Dim(0) != 48 || cols.Dim(1) != 18 {
		t.Errorf("cols shape %v", cols.Shape)
	}
}

func TestBatchNormKnown(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	got := BatchNorm(x, []float32{2}, []float32{1}, []float32{2.5}, []float32{1.25}, 0)
	// scale = 2/sqrt(1.25), y = (x-2.5)*scale + 1
	scale := 2 / float32(math.Sqrt(1.25))
	for i, xv := range x.Data {
		want := (xv-2.5)*scale + 1
		if !approx(got.Data[i], want) {
			t.Fatalf("bn[%d] = %v, want %v", i, got.Data[i], want)
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

func TestMaxPool(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	y := MaxPool2D(x, 2, 2)
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("pool = %v", y.Data)
		}
	}
}

func TestAvgPoolGrid(t *testing.T) {
	x := FromSlice([]float32{
		1, 1, 3, 3,
		1, 1, 3, 3,
		5, 5, 7, 7,
		5, 5, 7, 7,
	}, 1, 4, 4)
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
