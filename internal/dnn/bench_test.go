package dnn

import (
	"testing"

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
