package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMatMul is the bit-exactness reference: plain i/j/k loops with
// k-ascending per-element accumulation, the order every optimized path must
// reproduce exactly.
func naiveMatMul(a, b *Tensor, m, k, n int) *Tensor {
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[kk*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

func assertSameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %#x), want %v (bits %#x)",
				label, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestMatMulMatchesNaiveBitExact covers odd/prime shapes that straddle every
// kernel edge: sub-tile matrices, row/column remainders, and K panels beyond
// gemmKC (exercising the accumulate-into-C path).
func TestMatMulMatchesNaiveBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][3]int{
		{1, 1, 1},
		{1, 5, 3},   // classifier-head shape: single row, tiny n
		{2, 3, 8},   // exactly one 2×8 tile
		{3, 5, 7},   // all dimensions prime, everything is remainder
		{17, 13, 9}, // row + column remainders
		{30, 31, 33},
		{5, gemmKC + 13, 11}, // K spans two panels → accumulate path
		{4, 2*gemmKC + 1, 17},
		{64, 144, 64},
	}
	for _, c := range cases {
		m, k, n := c[0], c[1], c[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		got := MatMul(a, b, m, k, n)
		want := naiveMatMul(a, b, m, k, n)
		assertSameBits(t, formatShape(m, k, n), got.Data, want.Data)
	}
}

func formatShape(m, k, n int) string {
	return "matmul " + itoa(m) + "x" + itoa(k) + "x" + itoa(n)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestMatMulParallelBitIdentical forces the row-band parallel path (which the
// size threshold may not trigger on small CI machines) and checks it against
// the serial kernel bit for bit, across worker counts that do and do not
// divide the row count evenly.
func TestMatMulParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range [][3]int{{37, 29, 23}, {64, 144, 64}, {9, 300, 19}} {
		m, k, n := c[0], c[1], c[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		want := make([]float32, m*n)
		matMulRows(want, plainA(a.Data, k), b.Data, 0, m, k, n, ActiveKernel(), tail{})
		for _, workers := range []int{2, 3, 4, 7, m + 5} {
			got := make([]float32, m*n)
			matMulParallel(got, plainA(a.Data, k), b.Data, m, k, n, workers, ActiveKernel(), tail{})
			assertSameBits(t, formatShape(m, k, n)+" workers="+itoa(workers), got, want)
		}
	}
}

// TestMatMulZeroK checks the degenerate K=0 product still clears dst.
func TestMatMulZeroK(t *testing.T) {
	dst := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	a := &Tensor{Shape: []int{2, 0}, Data: nil}
	b := &Tensor{Shape: []int{0, 2}, Data: nil}
	MatMulInto(dst, a, b, 2, 0, 2)
	for i, v := range dst.Data {
		if v != 0 {
			t.Fatalf("dst[%d] = %v, want 0", i, v)
		}
	}
}

// TestConv2DWSBitIdenticalAndReused checks the workspace conv against the
// allocating API across repeated runs with recycled (dirty) scratch buffers,
// on shapes with odd extents and padding.
func TestConv2DWSBitIdenticalAndReused(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := NewWorkspace()
	cases := []struct{ inC, h, w, outC, k, stride, pad int }{
		{1, 48, 64, 16, 5, 2, 2},
		{3, 13, 17, 7, 3, 1, 1},
		{4, 9, 9, 5, 3, 2, 0},
	}
	for iter := 0; iter < 3; iter++ { // reuse the same workspace across shapes and iterations
		for _, c := range cases {
			x := randTensor(rng, c.h, c.w, c.inC)
			w := randTensor(rng, c.outC, c.inC, c.k, c.k)
			bias := make([]float32, c.outC)
			for i := range bias {
				bias[i] = rng.Float32()
			}
			want := Conv2D(x, w, bias, c.stride, c.pad)
			wt := ConvWeightT(w)
			got := Conv2DWS(ws, x, w, wt, Epilogue{Bias: bias}, c.stride, c.pad)
			assertSameBits(t, "conv2dws", got.Data, want.Data)
			for i, d := range want.Shape {
				if got.Shape[i] != d {
					t.Fatalf("shape %v, want %v", got.Shape, want.Shape)
				}
			}
			ws.Put(got)
		}
	}
}

// TestWorkspaceRecycling checks Get/Put buffer pooling semantics: returned
// buffers are handed out again, foreign tensors are ignored, and nil
// workspaces degrade to plain allocation.
func TestWorkspaceRecycling(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(4, 4)
	base := &a.Data[0]
	ws.Put(a)
	b := ws.Get(2, 3) // smaller request should reuse the pooled buffer
	if &b.Data[0] != base {
		t.Error("pooled buffer was not reused")
	}
	if b.Len() != 6 || b.Dim(0) != 2 || b.Dim(1) != 3 {
		t.Errorf("recycled tensor has shape %v len %d", b.Shape, b.Len())
	}
	ws.Put(b)
	ws.Put(b) // double put must not duplicate the buffer
	c := ws.Get(1)
	d := ws.Get(1)
	if &c.Data[0] == &d.Data[0] {
		t.Error("double Put handed the same buffer out twice")
	}

	foreign := New(8)
	ws.Put(foreign) // not ws-owned: must be ignored
	e := ws.Get(8)
	if &e.Data[0] == &foreign.Data[0] {
		t.Error("workspace pooled a tensor it did not own")
	}

	var nilWS *Workspace
	f := nilWS.Get(3)
	if f.Len() != 3 {
		t.Errorf("nil workspace Get returned len %d", f.Len())
	}
	nilWS.Put(f) // must not panic
}

// TestSoftmaxNaN checks deterministic NaN handling: NaN entries get zero
// probability and an all-NaN vector falls back to uniform.
func TestSoftmaxNaN(t *testing.T) {
	nan := float32(math.NaN())
	p := Softmax([]float32{1, nan, 3})
	if p[1] != 0 {
		t.Errorf("NaN probability = %v, want 0", p[1])
	}
	if s := p[0] + p[2]; math.Abs(float64(s)-1) > 1e-5 {
		t.Errorf("valid probabilities sum to %v", s)
	}
	if p[2] <= p[0] {
		t.Errorf("ordering lost: %v", p)
	}
	u := Softmax([]float32{nan, nan, nan, nan})
	for i, v := range u {
		if v != 0.25 {
			t.Errorf("all-NaN softmax[%d] = %v, want 0.25", i, v)
		}
	}
}

// TestArgmaxNaN checks NaN never wins and all-NaN returns index 0.
func TestArgmaxNaN(t *testing.T) {
	nan := float32(math.NaN())
	if got := Argmax([]float32{nan, 1, 5, nan, 2}); got != 2 {
		t.Errorf("Argmax = %d, want 2", got)
	}
	if got := Argmax([]float32{1, nan}); got != 0 {
		t.Errorf("Argmax = %d, want 0", got)
	}
	if got := Argmax([]float32{nan, nan}); got != 0 {
		t.Errorf("all-NaN Argmax = %d, want 0", got)
	}
	if got := Argmax(nil); got != 0 {
		t.Errorf("empty Argmax = %d, want 0", got)
	}
	if got := Argmax([]float32{nan, -7}); got != 1 {
		t.Errorf("Argmax = %d, want 1 (negative beats NaN)", got)
	}
}
