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
		matMulRows(c.Data, a.Data, w.Data, 0, 768, 144, 64, ActiveKernel())
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
		matMulParallel(c.Data, a.Data, w.Data, 768, 144, 64, 4, ActiveKernel())
	}
}

// BenchmarkConv2D measures a representative mid-network convolution.
func BenchmarkConv2D(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randTensor(rng, 32, 12, 16)
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
	x := randTensor(rng, 32, 12, 16)
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

// BenchmarkMatMulKernels times every dispatchable GEMM microkernel on the
// inference-critical shapes, serial path pinned (kernel passed explicitly,
// no global ForceKernel), so the numbers compare kernel against kernel:
// scalar 2x8 vs SSE 2x8 vs AVX2 4x16. Unsupported kernels skip, keeping
// the table honest on hosts without the ISA.
func BenchmarkMatMulKernels(b *testing.B) {
	shapes := []struct{ m, k, n int }{
		{3072, 27, 16},  // stem conv: tall-skinny im2col GEMM
		{768, 144, 64},  // mid-network conv (the BenchmarkMatMul shape)
		{192, 288, 128}, // deep conv: wide K and N
	}
	rng := rand.New(rand.NewSource(3))
	for _, kern := range []Kernel{KernelNoAsm, KernelSSE, KernelAVX2} {
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
					matMulRows(c.Data, a.Data, w.Data, 0, s.m, s.k, s.n, kern)
				}
				b.ReportMetric(macs*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "macs/ns")
			})
		}
	}
}

// BenchmarkMatMulInt8 times the quantized int8×int8→int32 GEMM on the
// mid-network shape, the per-layer kernel of the quantized datapath.
func BenchmarkMatMulInt8(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a, w := NewI8(768, 144), NewI8(144, 64)
	for i := range a.Data {
		a.Data[i] = int8(rng.Intn(255) - 127)
	}
	for i := range w.Data {
		w.Data[i] = int8(rng.Intn(255) - 127)
	}
	c := NewI32(768, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulI8Into(c, a, w, 768, 144, 64)
	}
}
