package dnn

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/tensor"
	"repro/internal/world"
)

// benchOut keeps the benchmarked forward passes observable.
var benchOut Output

// BenchmarkForward times the inference path missions run: ForwardWSP on one
// warm, reused workspace, for the ResNet6 and ResNet14 flight controllers
// on both datapaths. The nets carry BN statistics calibrated on rendered
// tunnel frames and infer one of those frames, so activation signs, ReLU
// sparsity and the int8 GEMM's zero skips are as in flight. It reports
// 0 allocs/op at -cpu 1; at higher GOMAXPROCS the per-call parallel GEMM
// allocates its goroutines.
func BenchmarkForward(b *testing.B) {
	frames := GenerateClean(world.Tunnel(), Lateral, 4, 5, 64, 48).Images
	for _, name := range []string{"ResNet6", "ResNet14"} {
		n := MustBuild(name, 1)
		if err := CalibrateBN(n, frames); err != nil {
			b.Fatal(err)
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
			})
		}
	}
}

// BenchmarkForwardBatch isolates the inference-level batching gain from the
// mission-level fleet benchmarks: B solo ForwardWSP calls vs one B-image
// Batcher.Forward, same workspace discipline, same images.
//
// Both evaluation depths are measured because the answer differs: ResNet6's
// conv GEMMs all carry M in the hundreds-to-thousands, so stacking adds no
// kernel utilization and batching is host-neutral; ResNet14's downsampled
// late stages have small per-image M and 32–64-channel weight panels whose
// reads dominate, so stacking amortizes real weight traffic (~1.1x at B=4).
func BenchmarkForwardBatch(b *testing.B) {
	const B = 4
	rng := rand.New(rand.NewSource(1))
	imgs := make([]*tensor.Tensor, B)
	for i := range imgs {
		imgs[i] = tensor.New(1, 48, 64)
		for j := range imgs[i].Data {
			imgs[i].Data[j] = rng.Float32() - 0.5
		}
	}
	outs := make([]Output, B)
	for _, model := range []string{"ResNet6", "ResNet14"} {
		n := MustBuild(model, 1)
		b.Run(model+"/solo", func(b *testing.B) {
			ws := tensor.NewWorkspace()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < B; j++ {
					outs[j] = n.ForwardWSP(ws, imgs[j], PrecisionFP32)
				}
			}
		})
		b.Run(model+"/batched", func(b *testing.B) {
			r := n.NewBatcher(nil, B, PrecisionFP32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Forward(imgs, outs)
			}
		})
		// The paired arm alternates solo and batched inside one loop so
		// host jitter (shared-vCPU stealing, frequency drift) hits both
		// equally; its ratio is the trustworthy batching number, the arms
		// above give absolute times.
		b.Run(model+"/paired", func(b *testing.B) {
			ws := tensor.NewWorkspace()
			r := n.NewBatcher(ws, B, PrecisionFP32)
			var solo, batched time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				for j := 0; j < B; j++ {
					outs[j] = n.ForwardWSP(ws, imgs[j], PrecisionFP32)
				}
				t1 := time.Now()
				r.Forward(imgs, outs)
				t2 := time.Now()
				solo += t1.Sub(t0)
				batched += t2.Sub(t1)
			}
			b.ReportMetric(float64(solo)/float64(batched), "batched_speedup_x")
		})
	}
}
