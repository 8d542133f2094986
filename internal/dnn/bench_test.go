package dnn

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
	"repro/internal/world"
)

// benchOut keeps the benchmarked forward passes observable.
var benchOut Output

// BenchmarkForward times the inference path missions run: ForwardWSP on one
// warm, reused workspace, for the ResNet6 and ResNet14 flight controllers
// on both datapaths. The nets carry BN statistics calibrated on rendered
// tunnel frames and infer those frames, so activation signs and ReLU
// sparsity (which the portable int8 kernel's zero skip sees; the AVX2 tile
// computes densely) are as in flight. The int8 rows report a_zero_pct, the
// share of zero bytes among those every int8 GEMM reads of its in-place A
// (padding and the stem's zero pad channel included) over every frame, and
// 0 allocs/op at any GOMAXPROCS (the int8 GEMM runs on the calling
// goroutine); the fp32 rows report 0 allocs/op at -cpu 1 only, since above
// it the per-call parallel GEMM starts its band goroutines.
func BenchmarkForward(b *testing.B) {
	frames := GenerateClean(world.Tunnel(), Lateral, 4, 5, 64, 48).Images
	for _, name := range []string{"ResNet6", "ResNet14"} {
		n := MustBuild(name, 1)
		if err := CalibrateBN(n, frames); err != nil {
			b.Fatal(err)
		}
		var zeros, total int
		for _, img := range frames {
			int8GEMMOperands(n, img, func(_ *Conv, a *tensor.I8) {
				zeros, total = zeros+countZeros(a), total+len(a.Data)
			})
		}
		for _, prec := range []Precision{PrecisionFP32, PrecisionInt8} {
			b.Run(name+"/"+prec.String(), func(b *testing.B) {
				ws := tensor.NewWorkspace()
				n.ForwardWSP(ws, frames[0], prec) // grow the workspace, fill the weight caches
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchOut = n.ForwardWSP(ws, frames[i%len(frames)], prec)
				}
				if prec == PrecisionInt8 {
					b.ReportMetric(100*float64(zeros)/float64(total), "a_zero_pct")
				}
			})
		}
	}
}

// BenchmarkMatMulInt8 times the int8 GEMM, tensor.MatMulI8Into, under each
// forced kernel on the operands a ResNet14 int8 forward of a rendered
// tunnel frame hands it, with the conv's packed weights: the stem
// (768×50×16; the quantized camera frame plus padding and its zero pad
// channel, so every K pair is a pixel and a zero) and the first conv of
// each of the three dominant shapes (768×144×16, 192×288×32, 48×576×64;
// ReLU output, about half zero, in runs along the row and from row to
// row). Each A is the conv's in-place operand copied out row by row, the
// bytes and order the kernel reads (int8GEMMOperands); MatMulI8Into reads
// it through a pair table it allocates per call. sse and noasm both run
// the portable kernel, whose zero skip sees the real placement of the
// zeros. Each row reports macs/ns and its A's a_zero_pct.
func BenchmarkMatMulInt8(b *testing.B) {
	frames := GenerateClean(world.Tunnel(), Lateral, 4, 5, 64, 48).Images
	n := MustBuild("ResNet14", 1)
	if err := CalibrateBN(n, frames); err != nil {
		b.Fatal(err)
	}
	type operand struct {
		a *tensor.I8
		w *tensor.PackedI8
	}
	var ops []operand
	want := map[[3]int]bool{{768, 50, 16}: true, {768, 144, 16}: true, {192, 288, 32}: true, {48, 576, 64}: true}
	int8GEMMOperands(n, frames[0], func(l *Conv, a *tensor.I8) {
		w, _ := l.quantWeights()
		if shape := [3]int{a.Shape[0], w.K, w.N}; want[shape] {
			want[shape] = false
			ops = append(ops, operand{a, w})
		}
	})
	for _, kern := range []tensor.Kernel{tensor.KernelNoAsm, tensor.KernelSSE, tensor.KernelAVX2} {
		for _, op := range ops {
			m, k, nc := op.a.Shape[0], op.w.K, op.w.N
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kern, m, k, nc), func(b *testing.B) {
				prev := tensor.ActiveKernel()
				if err := tensor.ForceKernel(kern); err != nil {
					b.Skipf("kernel %v unsupported on this host", kern)
				}
				defer tensor.ForceKernel(prev)
				c := tensor.NewI32(m, nc)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tensor.MatMulI8Into(c, op.a, op.w, m)
				}
				macs := float64(m) * float64(k) * float64(nc) * float64(b.N)
				b.ReportMetric(macs/float64(b.Elapsed().Nanoseconds()), "macs/ns")
				b.ReportMetric(100*float64(countZeros(op.a))/float64(len(op.a.Data)), "a_zero_pct")
			})
		}
	}
}

// int8GEMMOperands runs n's backbone on the int8 datapath for img and calls
// visit, in forward order, with every conv and its int8 GEMM's A operand as
// the kernel reads it in place, copied out: one row per output pixel, K in
// (kernel row, kernel column, channel) order over the input's channels
// rounded up to even, each byte the quantized channel-last input, or zero
// for padding and the pad channel.
func int8GEMMOperands(n *Net, img *tensor.Tensor, visit func(l *Conv, a *tensor.I8)) {
	ws := tensor.NewWorkspace()
	lower := func(l *Conv, x *tensor.Tensor) {
		h, w, c := x.Shape[0], x.Shape[1], x.Shape[2]
		kh, kw, cp := l.W.Shape[2], l.W.Shape[3], c+c%2
		q := tensor.NewI8(x.Shape...)
		tensor.QuantizeInto(q, x, tensor.ChooseQuantParams(x.Data))
		outH, outW := l.outDims(h, w)
		a := tensor.NewI8(outH*outW, kh*kw*cp)
		i := 0
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						iy, ix := oy*l.Stride+ky-l.Pad, ox*l.Stride+kx-l.Pad
						for ch := 0; ch < cp; ch++ {
							if iy >= 0 && iy < h && ix >= 0 && ix < w && ch < c {
								a.Data[i] = q.Data[(iy*w+ix)*c+ch]
							}
							i++
						}
					}
				}
			}
		}
		visit(l, a)
	}
	x := tensor.New(n.InH, n.InW, n.InC)
	tensor.HWCInto(x, img)
	for _, l := range n.Backbone {
		switch ll := l.(type) {
		case *Conv:
			lower(ll, x)
		case *Block:
			lower(ll.Conv1, x)
			lower(ll.Conv2, ll.Conv1.forward(x, ws, PrecisionInt8, ll.BN1, nil, true))
			if ll.Down != nil {
				lower(ll.Down, x)
			}
		}
		x = forwardLayer(l, x, ws, PrecisionInt8)
	}
}

// countZeros returns the number of zero elements of a.
func countZeros(a *tensor.I8) int {
	z := 0
	for _, v := range a.Data {
		if v == 0 {
			z++
		}
	}
	return z
}
