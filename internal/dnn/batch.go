package dnn

import (
	"fmt"

	"repro/internal/tensor"
)

// Batcher runs the same network over a fixed-size batch of images with one
// GEMM per layer instead of one per image: the per-image im2col matrices are
// stacked into a single (B·M)×K operand so each K-panel of the weight matrix
// is read once per batch rather than once per image. That is the throughput
// lever for multi-mission sweeps — B missions sharing a model amortize all
// weight traffic.
//
// Exactness: stacked rows are disjoint bands of the batched GEMM, and every
// GEMM kernel in this repo computes each output row independently in
// k-ascending order, so per-image results are bit-identical (float32) or
// exactly equal (int8, with per-image activation scales) to solo
// ForwardWSP calls. Batching changes host throughput only — never results,
// and never simulated SoC timing (each mission is still priced per-image).
//
// A Batcher reuses preallocated view headers and its workspace across calls;
// steady-state Forward calls allocate nothing. Like a Workspace, a Batcher
// is single-goroutine.
type Batcher struct {
	net  *Net
	ws   *tensor.Workspace
	b    int
	prec Precision

	v      [4]tensor.Tensor // reusable float32 band-view headers
	qv     tensor.I8        // reusable int8 band-view header
	scales []float32        // per-image activation scales of the current conv
}

// NewBatcher prepares batched inference for exactly batch images per
// Forward call. The workspace may be shared with other (same-goroutine)
// users; nil allocates a private one.
func (n *Net) NewBatcher(ws *tensor.Workspace, batch int, prec Precision) *Batcher {
	if batch < 1 {
		panic(fmt.Sprintf("dnn: batch size %d", batch))
	}
	if ws == nil {
		ws = tensor.NewWorkspace()
	}
	r := &Batcher{net: n, ws: ws, b: batch, prec: prec, scales: make([]float32, batch)}
	for i := range r.v {
		r.v[i].Shape = make([]int, 0, 4)
	}
	r.qv.Shape = make([]int, 0, 4)
	return r
}

// view binds reusable header idx to a band of data.
func (r *Batcher) view(idx int, data []float32, dims ...int) *tensor.Tensor {
	t := &r.v[idx]
	t.Data = data
	t.Shape = append(t.Shape[:0], dims...)
	return t
}

func (r *Batcher) viewI8(data []int8, dims ...int) *tensor.I8 {
	r.qv.Data = data
	r.qv.Shape = append(r.qv.Shape[:0], dims...)
	return &r.qv
}

// Forward runs one batched inference. imgs and outs must both have exactly
// the batch length; outs[i] receives image i's result, bit-identical to
// n.ForwardWSP(ws, imgs[i], prec).
func (r *Batcher) Forward(imgs []*tensor.Tensor, outs []Output) {
	n, ws, B := r.net, r.ws, r.b
	if len(imgs) != B || len(outs) != B {
		panic(fmt.Sprintf("dnn: batcher sized for %d images, got %d/%d", B, len(imgs), len(outs)))
	}
	c, h, w := n.InC, n.InH, n.InW
	sz := c * h * w
	cur := ws.Get(B, c, h, w)
	for b, img := range imgs {
		if len(img.Data) != sz {
			panic(fmt.Sprintf("dnn: batch image %d has %d elements, want %d", b, len(img.Data), sz))
		}
		copy(cur.Data[b*sz:(b+1)*sz], img.Data)
	}

	D := n.featureDim()
	feats := ws.Get(B, D)
	off := 0
	for i, l := range n.Backbone {
		switch ll := l.(type) {
		case *Conv:
			nxt, oc, oh, ow := r.convB(ll, cur, c, h, w)
			ws.Put(cur)
			cur, c, h, w = nxt, oc, oh, ow
		case *BatchNorm:
			r.bnB(ll, cur, c, h, w)
		case ReLU:
			tensor.ReLUInto(cur, cur)
		case *MaxPool:
			oh := (h-ll.K)/ll.S + 1
			ow := (w-ll.K)/ll.S + 1
			nxt := ws.Get(B, c, oh, ow)
			for b := 0; b < B; b++ {
				src := r.view(0, cur.Data[b*c*h*w:(b+1)*c*h*w], c, h, w)
				dst := r.view(1, nxt.Data[b*c*oh*ow:(b+1)*c*oh*ow], c, oh, ow)
				tensor.MaxPool2DInto(dst, src, ll.K, ll.S)
			}
			ws.Put(cur)
			cur, h, w = nxt, oh, ow
		case *Block:
			nxt, oc, oh, ow := r.blockB(ll, cur, c, h, w)
			ws.Put(cur)
			cur, c, h, w = nxt, oc, oh, ow
		default:
			panic(fmt.Sprintf("dnn: batched forward does not support layer type %T", l))
		}
		if n.tapped(i) {
			seg := c * n.PoolGY * n.PoolGX
			for b := 0; b < B; b++ {
				src := r.view(0, cur.Data[b*c*h*w:(b+1)*c*h*w], c, h, w)
				dst := r.view(1, feats.Data[b*D+off:b*D+off+seg], c, n.PoolGY, n.PoolGX)
				tensor.AvgPoolGridInto(dst, src, n.PoolGY, n.PoolGX)
			}
			off += seg
		}
	}
	ws.Put(cur)

	logits := ws.Get(B, 3)
	r.headB(n.HeadLateral, feats, logits, D)
	for b := range outs {
		tensor.SoftmaxInto(outs[b].Lateral[:], logits.Data[b*3:(b+1)*3])
	}
	r.headB(n.HeadAngular, feats, logits, D)
	for b := range outs {
		tensor.SoftmaxInto(outs[b].Angular[:], logits.Data[b*3:(b+1)*3])
	}
	ws.Put(logits)
	ws.Put(feats)
}

// headB computes one head's logits for the whole batch in a single GEMM
// against the cached [D, 3] weight transpose, then folds in the bias
// (sum-then-bias, the LinearInto order).
func (r *Batcher) headB(head *Dense, feats, logits *tensor.Tensor, d int) {
	tensor.MatMulInto(logits, feats, head.weightT(), r.b, d, 3)
	for b := 0; b < r.b; b++ {
		row := logits.Data[b*3 : (b+1)*3]
		row[0] += head.B[0]
		row[1] += head.B[1]
		row[2] += head.B[2]
	}
}

// bnB applies inference batch normalization in place, per image band.
func (r *Batcher) bnB(bn *BatchNorm, t *tensor.Tensor, c, h, w int) {
	sz := c * h * w
	for b := 0; b < r.b; b++ {
		v := r.view(3, t.Data[b*sz:(b+1)*sz], c, h, w)
		tensor.BatchNormInto(v, v, bn.Gamma, bn.Beta, bn.Mean, bn.Var, bnEps)
	}
}

// convB is the batched convolution: B stacked im2col bands, one GEMM, and a
// per-image bias/transpose (or dequantize) epilogue. It does not release x —
// the caller decides (blocks keep it live for the shortcut).
func (r *Batcher) convB(l *Conv, x *tensor.Tensor, c, h, w int) (*tensor.Tensor, int, int, int) {
	ws, B := r.ws, r.b
	outC, kh, kw := l.W.Shape[0], l.W.Shape[2], l.W.Shape[3]
	if l.W.Shape[1] != c {
		panic(fmt.Sprintf("dnn: batched conv input has %d channels, weights expect %d", c, l.W.Shape[1]))
	}
	outH := (h+2*l.Pad-kh)/l.Stride + 1
	outW := (w+2*l.Pad-kw)/l.Stride + 1
	m := outH * outW
	k := c * kh * kw
	sz := c * h * w
	y := ws.Get(B, outC, outH, outW)

	if r.prec == PrecisionInt8 {
		wq, sw := l.quantWeightT()
		qx := ws.GetI8(c, h, w)
		qcols := ws.GetI8(B*m, k)
		for b := 0; b < B; b++ {
			xb := r.view(0, x.Data[b*sz:(b+1)*sz], c, h, w)
			qp := tensor.ChooseQuantParams(xb.Data)
			r.scales[b] = qp.Scale
			tensor.QuantizeInto(qx, xb, qp)
			band := r.viewI8(qcols.Data[b*m*k:(b+1)*m*k], m, k)
			tensor.Im2ColI8Into(ws, band, qx, kh, kw, l.Stride, l.Pad)
		}
		ws.PutI8(qx)
		acc := ws.GetI32(B*m, outC)
		tensor.MatMulI8Into(acc, qcols, wq, B*m, k, outC)
		ws.PutI8(qcols)
		for b := 0; b < B; b++ {
			d := r.scales[b] * sw
			for o := 0; o < outC; o++ {
				var bias float32
				if l.Bias != nil {
					bias = l.Bias[o]
				}
				yb := y.Data[(b*outC+o)*m : (b*outC+o+1)*m]
				ab := acc.Data[b*m*outC : (b+1)*m*outC]
				for i := 0; i < m; i++ {
					yb[i] = float32(ab[i*outC+o])*d + bias
				}
			}
		}
		ws.PutI32(acc)
		return y, outC, outH, outW
	}

	cols := ws.Get(B*m, k)
	for b := 0; b < B; b++ {
		xb := r.view(0, x.Data[b*sz:(b+1)*sz], c, h, w)
		band := r.view(1, cols.Data[b*m*k:(b+1)*m*k], m, k)
		tensor.Im2ColInto(ws, band, xb, kh, kw, l.Stride, l.Pad)
	}
	prod := ws.Get(B*m, outC)
	tensor.MatMulInto(prod, cols, l.weightT(), B*m, k, outC)
	ws.Put(cols)
	for b := 0; b < B; b++ {
		for o := 0; o < outC; o++ {
			var bias float32
			if l.Bias != nil {
				bias = l.Bias[o]
			}
			yb := y.Data[(b*outC+o)*m : (b*outC+o+1)*m]
			pb := prod.Data[b*m*outC : (b+1)*m*outC]
			for i := 0; i < m; i++ {
				yb[i] = pb[i*outC+o] + bias
			}
		}
	}
	ws.Put(prod)
	return y, outC, outH, outW
}

// blockB is the batched ResNet basic block, mirroring Block.Forward /
// Block.ForwardQ with batched convolutions and in-place float32 glue.
func (r *Batcher) blockB(blk *Block, x *tensor.Tensor, c, h, w int) (*tensor.Tensor, int, int, int) {
	ws := r.ws
	y, oc, oh, ow := r.convB(blk.Conv1, x, c, h, w)
	r.bnB(blk.BN1, y, oc, oh, ow)
	tensor.ReLUInto(y, y)
	z, _, _, _ := r.convB(blk.Conv2, y, oc, oh, ow)
	r.bnB(blk.BN2, z, oc, oh, ow)
	ws.Put(y)
	short := x
	if blk.Down != nil {
		short, _, _, _ = r.convB(blk.Down, x, c, h, w)
		r.bnB(blk.DownBN, short, oc, oh, ow)
	}
	tensor.AddInto(z, z, short)
	tensor.ReLUInto(z, z)
	if short != x {
		ws.Put(short)
	}
	return z, oc, oh, ow
}
