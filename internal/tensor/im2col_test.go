package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// im2colNaive is the reference lowering the optimized paths must match
// element-for-element: the original per-element triple loop with bounds
// checks in the innermost position.
func im2colNaive(cd []float32, xd []float32, c, h, w, kh, kw, stride, pad, outH, outW int) {
	kcols := c * kh * kw
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			idx := (oy*outW + ox) * kcols
			for ch := 0; ch < c; ch++ {
				chOff := ch * h * w
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride + ky - pad
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride + kx - pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							cd[idx] = xd[chOff+iy*w+ix]
						} else {
							cd[idx] = 0
						}
						idx++
					}
				}
			}
		}
	}
}

// TestIm2ColMatchesNaive sweeps kernel/stride/pad/shape combinations —
// including the unrolled 3×3 run, 1-pixel-wide inputs, and kernels larger
// than the padded input edge — and requires bit-identical output from
// Im2ColInto, with a nil workspace and twice on one whose pooled buffers
// start out poisoned (the padded copy must clear its border every time).
func TestIm2ColMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := NewWorkspace()
	poisonWorkspace(ws)
	cases := []struct{ c, h, w, kh, kw, stride, pad int }{
		{1, 48, 64, 3, 3, 1, 1}, // ResNet block conv
		{16, 24, 32, 3, 3, 1, 1},
		{3, 5, 5, 3, 3, 1, 1},
		{2, 2, 3, 3, 3, 1, 1},
		{1, 48, 64, 5, 5, 2, 2}, // ResNet stem
		{4, 9, 7, 1, 1, 1, 0},   // 1×1 projection
		{4, 9, 7, 1, 1, 2, 0},
		{2, 7, 7, 3, 3, 2, 1},
		{2, 6, 5, 4, 2, 1, 3}, // pad wider than kernel: fully-padded runs
		{1, 1, 1, 3, 3, 1, 1}, // single pixel, all-border
		{1, 4, 1, 3, 3, 1, 1}, // 1-wide input
		{3, 5, 6, 5, 3, 3, 2},
	}
	for _, tc := range cases {
		x := New(tc.c, tc.h, tc.w)
		for i := range x.Data {
			x.Data[i] = rng.Float32() - 0.5
		}
		outH := (tc.h+2*tc.pad-tc.kh)/tc.stride + 1
		outW := (tc.w+2*tc.pad-tc.kw)/tc.stride + 1
		if outH <= 0 || outW <= 0 {
			t.Fatalf("case %+v: degenerate output %dx%d", tc, outH, outW)
		}
		kcols := tc.c * tc.kh * tc.kw
		want := make([]float32, outH*outW*kcols)
		im2colNaive(want, x.Data, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, outH, outW)
		for _, w := range []*Workspace{nil, ws, ws} {
			got := w.Get(outH*outW, kcols)
			// Poison the destination so skipped writes are caught.
			for i := range got.Data {
				got.Data[i] = 999
			}
			gotH, gotW := Im2ColInto(w, got, x, tc.kh, tc.kw, tc.stride, tc.pad)
			if gotH != outH || gotW != outW {
				t.Fatalf("case %+v: dims %dx%d, want %dx%d", tc, gotH, gotW, outH, outW)
			}
			assertSameBits(t, fmt.Sprintf("im2col %+v", tc), got.Data, want)
			w.Put(got)
		}
	}
}

// TestIm2ColI8MatchesFloatLayout checks the int8 instantiation agrees with
// the float32 one on layout: quantize input, lower both, compare patterns.
// The int8 lowering draws its padded copy from a poisoned workspace.
func TestIm2ColI8MatchesFloatLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := NewWorkspace()
	poisonWorkspace(ws)
	for _, tc := range []struct{ c, h, w, kh, kw, stride, pad int }{
		{3, 10, 12, 3, 3, 1, 1},
		{2, 9, 7, 5, 5, 2, 2},
	} {
		x := New(tc.c, tc.h, tc.w)
		for i := range x.Data {
			x.Data[i] = rng.Float32() - 0.5
		}
		qx := NewI8(tc.c, tc.h, tc.w)
		qp := ChooseQuantParams(x.Data)
		QuantizeInto(qx, x, qp)
		outH := (tc.h+2*tc.pad-tc.kh)/tc.stride + 1
		outW := (tc.w+2*tc.pad-tc.kw)/tc.stride + 1
		kcols := tc.c * tc.kh * tc.kw
		fcols := New(outH*outW, kcols)
		qcols := NewI8(outH*outW, kcols)
		Im2ColInto(nil, fcols, x, tc.kh, tc.kw, tc.stride, tc.pad)
		Im2ColI8Into(ws, qcols, qx, tc.kh, tc.kw, tc.stride, tc.pad)
		// Each int8 patch element must be the quantization of the float one.
		qref := NewI8(outH*outW, kcols)
		QuantizeInto(qref, fcols, qp)
		for i := range qref.Data {
			if qcols.Data[i] != qref.Data[i] {
				t.Fatalf("case %+v: int8 element %d = %d, want %d", tc, i, qcols.Data[i], qref.Data[i])
			}
		}
	}
}
