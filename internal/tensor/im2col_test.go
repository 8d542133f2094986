package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Im2Col lowers an HWC input for a KH×KW convolution with the given stride
// and padding into a matrix of shape [outH*outW, C*KH*KW], K in (channel,
// kernel row, kernel column) order, by reading the in-place operand the
// fp32 conv GEMM reads (padInto, convA) row by row. No product code builds
// this matrix; the tests pin the operand to the naive lowering through it.
func Im2Col(x *Tensor, kh, kw, stride, pad int) (*Tensor, int, int) {
	outH, outW := convOutDims(x.Shape, kh, kw, stride, pad)
	cols := New(outH*outW, x.Shape[2]*kh*kw)
	Im2ColInto(nil, cols, x, kh, kw, stride, pad)
	return cols, outH, outW
}

// Im2ColInto is Im2Col into cols, drawing a padded operand's zero-bordered
// copy of x and the offset table from ws (nil allocates), as Conv2DWS does.
func Im2ColInto(ws *Workspace, cols, x *Tensor, kh, kw, stride, pad int) (outH, outW int) {
	outH, outW = convOutDims(x.Shape, kh, kw, stride, pad)
	h, w, c := x.Shape[0], x.Shape[1], x.Shape[2]
	k := c * kh * kw
	src := x.Data
	var padded *Tensor
	if pad > 0 {
		padded = ws.Get(h+2*pad, w+2*pad, c)
		padInto(padded.Data, x.Data, h, w, c, pad)
		src = padded.Data
	}
	off := ws.GetI32(k)
	a := convA(src, off.Data, c, h+2*pad, w+2*pad, kh, kw, stride, outW)
	rows := a.rows(0, 0)
	for i := 0; i < outH*outW; i++ {
		o := rows.next()
		for kk, d := range a.off {
			cols.Data[i*k+kk] = a.data[o+int(d)]
		}
	}
	ws.PutI32(off)
	ws.Put(padded)
	return outH, outW
}

// im2colNaive is the reference lowering of a CHW input the in-place
// operands must match element for element: the original per-element
// triple loop with bounds checks in the innermost position.
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

// lowerCase is one lowering's input and kernel geometry.
type lowerCase struct{ c, h, w, kh, kw, stride, pad int }

// im2colCases sweeps kernel/stride/pad/shape combinations — 1-pixel-wide
// inputs, kernels larger than the padded input edge, odd and even channel
// counts.
var im2colCases = []lowerCase{
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
	{5, 9, 11, 3, 3, 2, 1},
}

// TestIm2ColMatchesNaive requires the fp32 in-place conv operand, read row
// by row through its offset table, to equal the naive lowering of the same
// input in CHW bit for bit, with a nil workspace and twice on one whose
// pooled buffers start out poisoned (the padded copy must clear its border
// every time).
func TestIm2ColMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := NewWorkspace()
	poisonWorkspace(ws)
	for _, tc := range im2colCases {
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
		xh := toHWC(x)
		for _, w := range []*Workspace{nil, ws, ws} {
			got := w.Get(outH*outW, kcols)
			// Poison the destination so skipped writes are caught.
			for i := range got.Data {
				got.Data[i] = 999
			}
			gotH, gotW := Im2ColInto(w, got, xh, tc.kh, tc.kw, tc.stride, tc.pad)
			if gotH != outH || gotW != outW {
				t.Fatalf("case %+v: dims %dx%d, want %dx%d", tc, gotH, gotW, outH, outW)
			}
			assertSameBits(t, fmt.Sprintf("im2col %+v", tc), got.Data, want)
			w.Put(got)
		}
	}
}

// checkI8Operand requires the int8 in-place conv operand of the HWC input
// xh — xh quantized straight into a zero-bordered HWC copy with an even
// channel count (quantizePadInto), read through the K pair table
// (convPairs) — to hold, for every row and pair, want's elements (a
// lowering in (channel, kernel row, kernel column) K order) in (kernel
// row, kernel column, channel) order, and a zero for the pad channel of an
// odd channel count. The copy comes from ws, twice.
func checkI8Operand(t *testing.T, ws *Workspace, tc lowerCase, xh *Tensor, qp QuantParams, want *I8) {
	t.Helper()
	outH := (tc.h+2*tc.pad-tc.kh)/tc.stride + 1
	outW := (tc.w+2*tc.pad-tc.kw)/tc.stride + 1
	kcols := tc.c * tc.kh * tc.kw
	cp := tc.c + tc.c%2
	hp, wp := tc.h+2*tc.pad, tc.w+2*tc.pad
	for run := 0; run < 2; run++ {
		qx := ws.GetI8(hp, wp, cp)
		quantizePadInto(qx.Data, xh.Data, tc.h, tc.w, tc.c, cp, tc.pad, 1/qp.Scale)
		off := ws.GetI32(tc.kh * tc.kw * cp / 2)
		a := convPairs(qx.Data, off.Data, cp, hp, wp, tc.kh, tc.kw, tc.stride, outW)
		rows := a.rows(0, 0)
		for i := 0; i < outH*outW; i++ {
			o := rows.next()
			for p, d := range a.off {
				ky, kx, ch := p/(tc.kw*cp/2), p/(cp/2)%tc.kw, 2*(p%(cp/2))
				for b := 0; b < 2; b++ {
					var w int8
					if ch+b < tc.c {
						w = want.Data[i*kcols+((ch+b)*tc.kh+ky)*tc.kw+kx]
					}
					if got := a.data[o+int(d)+b]; got != w {
						t.Fatalf("case %+v run %d: row %d pair %d byte %d = %d, want %d", tc, run, i, p, b, got, w)
					}
				}
			}
		}
		ws.PutI32(off)
		ws.PutI8(qx)
	}
}

// TestIm2ColI8MatchesFloatLayout checks the int8 in-place conv operand
// agrees with the fp32 one on layout: each int8 element must be the
// quantization of the fp32 operand's (Im2Col) element at the same row and
// (channel, kernel row, kernel column) position. The int8 operand draws
// its padded copy from a poisoned workspace.
func TestIm2ColI8MatchesFloatLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := NewWorkspace()
	poisonWorkspace(ws)
	for _, tc := range im2colCases {
		xh := toHWC(randTensor(rng, tc.c, tc.h, tc.w))
		qp := ChooseQuantParams(xh.Data)
		fcols, _, _ := Im2Col(xh, tc.kh, tc.kw, tc.stride, tc.pad)
		qref := NewI8(fcols.Shape...)
		QuantizeInto(qref, fcols, qp)
		checkI8Operand(t, ws, tc, xh, qp, qref)
	}
}

// TestIm2ColI8MatchesQuantizedFloat checks quantize-then-lower equals
// lower-then-quantize (zero-point 0 makes padding commute): the int8
// in-place operand, quantized straight into its padded copy, against the
// naive lowering of the CHW input, quantized afterwards.
func TestIm2ColI8MatchesQuantizedFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ws := NewWorkspace()
	poisonWorkspace(ws)
	for _, tc := range im2colCases {
		x := randTensor(rng, tc.c, tc.h, tc.w)
		qp := ChooseQuantParams(x.Data)
		outH := (tc.h+2*tc.pad-tc.kh)/tc.stride + 1
		outW := (tc.w+2*tc.pad-tc.kw)/tc.stride + 1
		kcols := tc.c * tc.kh * tc.kw
		lowered := New(outH*outW, kcols)
		im2colNaive(lowered.Data, x.Data, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, outH, outW)
		qAfter := NewI8(outH*outW, kcols)
		QuantizeInto(qAfter, lowered, qp)
		checkI8Operand(t, ws, tc, toHWC(x), qp, qAfter)
	}
}
