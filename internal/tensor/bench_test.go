package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32() - 0.5
	}
	return t
}

// BenchmarkMatMul measures the dense GEMM kernel that dominates inference.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 768, 144)
	w := randTensor(rng, 144, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(a, w, 768, 144, 64)
	}
}

// BenchmarkMatMulSerial pins the GEMM to the serial blocked kernel,
// isolating the tiling + SIMD gain from row-band parallelism.
func BenchmarkMatMulSerial(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 768, 144)
	w := randTensor(rng, 144, 64)
	c := New(768, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulRows(c.Data, plainA(a.Data, 144), w.Data, 0, 768, 144, 64, ActiveKernel(), tail{})
	}
}

// BenchmarkMatMulParallel forces the row-band fan-out at 4 workers
// regardless of GOMAXPROCS, for a like-for-like pair with the serial run.
func BenchmarkMatMulParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 768, 144)
	w := randTensor(rng, 144, 64)
	c := New(768, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulParallel(c.Data, plainA(a.Data, 144), w.Data, 768, 144, 64, 4, ActiveKernel(), tail{})
	}
}

// BenchmarkConv2D measures a representative mid-network convolution.
func BenchmarkConv2D(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randTensor(rng, 12, 16, 32)
	w := randTensor(rng, 32, 32, 3, 3)
	bias := make([]float32, 32)
	for i := 0; i < b.N; i++ {
		Conv2D(x, w, bias, 1, 1)
	}
}

// BenchmarkConv2DWorkspace is the zero-alloc inference path: recycled
// scratch, precomputed weight transpose. Allocs/op must stay ≤ 1.
func BenchmarkConv2DWorkspace(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randTensor(rng, 12, 16, 32)
	w := randTensor(rng, 32, 32, 3, 3)
	wt := ConvWeightT(w)
	bias := make([]float32, 32)
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Conv2DWS(ws, x, w, wt, Epilogue{Bias: bias}, 1, 1)
		ws.Put(out)
	}
}

// BenchmarkConvKernels times Conv2DWS (precomputed weight transpose) on a
// warm workspace under each forced kernel, on ResNet14's conv shapes: the
// 5×5/s2 stem, the 3×3/s1 block convs at 16, 32 and 64 channels, the
// 3×3/s2 downsampling convs 16→32 and 32→64, and the 1×1/s2 projection
// 16→32, each with the bias epilogue; and the block tails on the 3×3/s1
// shapes, the first conv's +BN+ReLU (…/bnrelu) and the second's
// +BN+residual+ReLU (…/bnresrelu), which the GEMM finishes in its row
// bands. It reports us/op beside ns/op, and 0 allocs/op at -cpu 1 (at
// GOMAXPROCS > 1 the larger convs start the GEMM's band goroutines).
// Unsupported kernels skip.
func BenchmarkConvKernels(b *testing.B) {
	shapes := []struct {
		name string
		c    convCase
	}{
		{"stem5x5s2", convCase{1, 16, 48, 64, 5, 2, 2}},
		{"3x3s1c16", convCase{16, 16, 24, 32, 3, 1, 1}},
		{"3x3s1c32", convCase{32, 32, 12, 16, 3, 1, 1}},
		{"3x3s1c64", convCase{64, 64, 6, 8, 3, 1, 1}},
		{"3x3s2c16to32", convCase{16, 32, 24, 32, 3, 2, 1}},
		{"3x3s2c32to64", convCase{32, 64, 12, 16, 3, 2, 1}},
		{"1x1s2c16to32", convCase{16, 32, 24, 32, 1, 2, 0}},
	}
	rng := rand.New(rand.NewSource(4))
	for _, kern := range kernelMatrix {
		for _, s := range shapes {
			x, w, bias := randConv(rng, s.c)
			x = toHWC(x)
			gamma, beta, mean, variance := randBN(rng, s.c.outC)
			outH, outW := convOutDims(x.Shape, s.c.k, s.c.k, s.c.stride, s.c.pad)
			res := randTensor(rng, outH, outW, s.c.outC)
			type tailCase struct {
				name string
				ep   Epilogue
			}
			tails := []tailCase{{"", Epilogue{Bias: bias}}}
			if s.c.k == 3 && s.c.stride == 1 {
				bn := Epilogue{Bias: bias, Gamma: gamma, Beta: beta, Mean: mean, Var: variance, Eps: 1e-5, ReLU: true}
				withRes := bn
				withRes.Res = res.Data
				tails = append(tails, tailCase{"/bnrelu", bn}, tailCase{"/bnresrelu", withRes})
			}
			for _, tl := range tails {
				b.Run(kern.String()+"/"+s.name+tl.name, func(b *testing.B) {
					prev := ActiveKernel()
					if err := ForceKernel(kern); err != nil {
						b.Skipf("kernel %v unsupported on this host", kern)
					}
					defer ForceKernel(prev)
					wt := ConvWeightT(w)
					ws := NewWorkspace()
					ws.Put(Conv2DWS(ws, x, w, wt, tl.ep, s.c.stride, s.c.pad))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ws.Put(Conv2DWS(ws, x, w, wt, tl.ep, s.c.stride, s.c.pad))
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/op")
				})
			}
		}
	}
}

// BenchmarkMatMulKernels times every dispatchable GEMM microkernel on the
// ResNet14 shapes, serial path pinned (kernel passed explicitly, no global
// ForceKernel), so the numbers compare kernel against kernel: scalar 2x8
// vs SSE 2x8 vs AVX2 4x16. Unsupported kernels skip, keeping the table
// honest on hosts without the ISA.
func BenchmarkMatMulKernels(b *testing.B) {
	// The GEMMs a ResNet14 forward runs most, as its Describe lists them:
	// the stem (768×25×16, once, odd K) and the three dominant shapes
	// (768×144×16 four times, 192×288×32 and 48×576×64 three times each).
	shapes := []struct{ m, k, n int }{
		{768, 25, 16},
		{768, 144, 16},
		{192, 288, 32},
		{48, 576, 64},
	}
	rng := rand.New(rand.NewSource(3))
	for _, kern := range kernelMatrix {
		kern := kern
		for _, s := range shapes {
			s := s
			name := fmt.Sprintf("%s/%dx%dx%d", kern, s.m, s.k, s.n)
			b.Run(name, func(b *testing.B) {
				if !KernelSupported(kern) {
					b.Skipf("kernel %v unsupported on this host", kern)
				}
				a := randTensor(rng, s.m, s.k)
				w := randTensor(rng, s.k, s.n)
				c := New(s.m, s.n)
				macs := float64(s.m) * float64(s.k) * float64(s.n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					matMulRows(c.Data, plainA(a.Data, s.k), w.Data, 0, s.m, s.k, s.n, kern, tail{})
				}
				b.ReportMetric(macs*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "macs/ns")
			})
		}
	}
}
