package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestWorkspaceGrowsLargestInsteadOfStranding checks the grow path: when no
// pooled buffer fits, the largest free buffer is grown in place rather than
// left stranded behind a fresh allocation, so a ramp of increasing sizes
// keeps a single buffer instead of one per size.
func TestWorkspaceGrowsLargestInsteadOfStranding(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(8)
	ws.Put(a)
	b := ws.Get(64) // must grow a's buffer, not allocate beside it
	if b != a {
		t.Fatal("grow path allocated a new tensor instead of growing the pooled one")
	}
	if b.Len() != 64 || cap(b.Data) < 64 {
		t.Fatalf("grown tensor len %d cap %d", b.Len(), cap(b.Data))
	}
	ws.Put(b)
	if len(ws.free) != 1 {
		t.Fatalf("pool holds %d buffers after grow, want 1", len(ws.free))
	}
	// Ramp: every step reuses and grows the same single pooled buffer.
	for _, n := range []int{100, 400, 900, 2500} {
		c := ws.Get(n)
		ws.Put(c)
	}
	if len(ws.free) != 1 {
		t.Fatalf("pool holds %d buffers after ramp, want 1", len(ws.free))
	}
	if got := cap(ws.free[0].Data); got < 2500 {
		t.Fatalf("pooled buffer cap %d after ramp, want ≥ 2500", got)
	}
	// Best-fit still wins when something fits: two in-flight buffers, the
	// smaller one should serve a small request.
	small := ws.Get(10)
	big := ws.Get(3000)
	ws.Put(big)
	ws.Put(small)
	d := ws.Get(5)
	if d != small {
		t.Fatal("best fit did not pick the smaller pooled buffer")
	}
}

// TestWorkspaceIntPools checks GetI8/GetI32 recycling, growth, double-put
// protection, and nil-workspace fallback — the same contract as Get/Put.
func TestWorkspaceIntPools(t *testing.T) {
	ws := NewWorkspace()

	q := ws.GetI8(4, 4)
	if q.Len() == 0 || len(q.Data) != 16 {
		t.Fatalf("GetI8 len %d", len(q.Data))
	}
	base := &q.Data[0]
	ws.PutI8(q)
	q2 := ws.GetI8(2, 3)
	if &q2.Data[0] != base {
		t.Error("pooled int8 buffer was not reused")
	}
	if q2.Shape[0] != 2 || q2.Shape[1] != 3 {
		t.Errorf("recycled I8 shape %v", q2.Shape)
	}
	ws.PutI8(q2)
	ws.PutI8(q2) // double put must not duplicate
	x, y := ws.GetI8(1), ws.GetI8(1)
	if &x.Data[0] == &y.Data[0] {
		t.Error("double PutI8 handed out the same buffer twice")
	}
	grown := ws.GetI8(1000) // grow path on the int8 pool
	if cap(grown.Data) < 1000 {
		t.Fatalf("GetI8 grow cap %d", cap(grown.Data))
	}

	a := ws.GetI32(3, 5)
	base32 := &a.Data[0]
	ws.PutI32(a)
	b := ws.GetI32(2, 2)
	if &b.Data[0] != base32 {
		t.Error("pooled int32 buffer was not reused")
	}

	var nilWS *Workspace
	if n := nilWS.GetI8(3); len(n.Data) != 3 {
		t.Errorf("nil workspace GetI8 len %d", len(n.Data))
	}
	nilWS.PutI8(nil) // must not panic
	if n := nilWS.GetI32(2); len(n.Data) != 2 {
		t.Errorf("nil workspace GetI32 len %d", len(n.Data))
	}
	nilWS.PutI32(nil)

	// A workspace built as a zero-value literal (predating the int pools)
	// must lazily initialize its ownership maps.
	legacy := &Workspace{owned: make(map[*Tensor]struct{})}
	l8 := legacy.GetI8(2)
	legacy.PutI8(l8)
	l32 := legacy.GetI32(2)
	legacy.PutI32(l32)
}

// TestWorkspaceSteadyStateZeroAlloc checks the pooling contract the
// inference hot loop depends on: after a warm-up pass, cycling the same
// shape mix through Get/Put (float32, int8, and int32 pools) allocates
// nothing.
func TestWorkspaceSteadyStateZeroAlloc(t *testing.T) {
	ws := NewWorkspace()
	cycle := func() {
		a := ws.Get(12, 32)
		b := ws.Get(9, 9, 3)
		q := ws.GetI8(12, 32)
		acc := ws.GetI32(12, 8)
		ws.Put(a)
		ws.PutI8(q)
		ws.PutI32(acc)
		c := ws.Get(64)
		ws.Put(b)
		ws.Put(c)
	}
	cycle() // warm up: pool converges to the peak working set
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state workspace cycle allocates %v times per run, want 0", allocs)
	}
}

// TestQuantizeRoundTrip checks the symmetric per-tensor scheme: round trip
// error is bounded by half a quantization step, extremes hit ±127 exactly,
// and the degenerate all-zero tensor round-trips losslessly.
func TestQuantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := New(256)
	for i := range x.Data {
		x.Data[i] = (rng.Float32() - 0.5) * 20
	}
	x.Data[0] = 10 // known max magnitude
	x.Data[1] = -10
	qp := ChooseQuantParams(x.Data)
	wantScale := float32(10) / 127
	if qp.Scale != wantScale {
		t.Fatalf("scale %v, want %v", qp.Scale, wantScale)
	}
	q := NewI8(256)
	QuantizeInto(q, x, qp)
	if q.Data[0] != 127 || q.Data[1] != -127 {
		t.Fatalf("extremes quantized to %d/%d, want 127/-127", q.Data[0], q.Data[1])
	}
	for i, v := range x.Data {
		back := float32(q.Data[i]) * qp.Scale
		if diff := math.Abs(float64(back - v)); diff > float64(qp.Scale)/2+1e-6 {
			t.Fatalf("element %d: %v → %d → %v (err %v > scale/2)", i, v, q.Data[i], back, diff)
		}
	}

	zero := New(8)
	zp := ChooseQuantParams(zero.Data)
	if zp.Scale != 1 {
		t.Fatalf("all-zero scale %v, want 1", zp.Scale)
	}
}

// TestQuantOneRounding checks round-half-away-from-zero, clamping, and NaN.
func TestQuantOneRounding(t *testing.T) {
	cases := []struct {
		in   float32
		want int8
	}{
		{0, 0}, {0.4, 0}, {0.5, 1}, {0.6, 1}, {1.5, 2},
		{-0.4, 0}, {-0.5, -1}, {-0.6, -1}, {-1.5, -2},
		{126.4, 126}, {126.5, 127}, {200, 127}, {-200, -127},
		{float32(math.NaN()), 0},
	}
	for _, c := range cases {
		if got := quantOne(c.in); got != c.want {
			t.Errorf("quantOne(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestIm2ColI8MatchesQuantizedFloat checks quantize-then-im2col equals
// im2col-then-quantize (zero-point 0 makes padding commute).
func TestIm2ColI8MatchesQuantizedFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := randTensor(rng, 3, 9, 11)
	qp := ChooseQuantParams(x.Data)

	// Path 1: im2col in float, then quantize.
	cols, outH, outW := Im2Col(x, 3, 3, 2, 1)
	qAfter := NewI8(outH*outW, 3*3*3)
	QuantizeInto(qAfter, cols, qp)

	// Path 2: quantize CHW, then im2col in int8.
	qx := &I8{Shape: []int{3, 9, 11}, Data: make([]int8, x.Len())}
	QuantizeInto(qx, x, qp)
	qBefore := NewI8(outH*outW, 3*3*3)
	oh, ow := Im2ColI8Into(nil, qBefore, qx, 3, 3, 2, 1)
	if oh != outH || ow != outW {
		t.Fatalf("int8 im2col dims %dx%d, want %dx%d", oh, ow, outH, outW)
	}
	for i := range qBefore.Data {
		if qBefore.Data[i] != qAfter.Data[i] {
			t.Fatalf("element %d: quantize-first %d vs im2col-first %d", i, qBefore.Data[i], qAfter.Data[i])
		}
	}
}
