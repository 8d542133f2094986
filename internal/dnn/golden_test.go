package dnn

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// goldenFeatures pins the backbone's output itself, not a comparison of
// two paths through the same code: FNV-1a over the float32 bits of the
// feature vectors of two fixed synthetic images, for ResNet6 and ResNet14
// with BN statistics calibrated on four other synthetic images, on both
// datapaths, at the network's input size and (keys ending in /128x96) on
// 128×96 frames, the larger camera a rose-env-server -cam-w/-cam-h serves.
// A change that moves every path alike (a layout bug shared by the fused
// and the reference conv, a calibration that reads the wrong channel) shows
// here and nowhere else in the tier-1 suite.
var goldenFeatures = map[string]uint64{
	"ResNet6/fp32":         0x48df443873a35bf9,
	"ResNet6/int8":         0xac1a7aa68d49dbe5,
	"ResNet14/fp32":        0xb1a191cb0961689a,
	"ResNet14/int8":        0xfd5824c8be07aebe,
	"ResNet6/fp32/128x96":  0x826b0b5f907a6b85,
	"ResNet6/int8/128x96":  0x85888558c0935632,
	"ResNet14/fp32/128x96": 0x498e1a914ab06f19,
	"ResNet14/int8/128x96": 0x92920dd7b844132b,
}

// TestForwardGolden checks the feature hashes against goldenFeatures under
// every forceable GEMM kernel. Only amd64 runs it: elsewhere the compiler
// may fuse a float multiply and add outside internal/tensor (BN
// calibration's sums, for one) into one rounding, which moves the bits.
func TestForwardGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64; %s may fuse multiply-adds outside internal/tensor", runtime.GOARCH)
	}
	prev := tensor.ActiveKernel()
	defer tensor.ForceKernel(prev)
	for _, name := range []string{"ResNet6", "ResNet14"} {
		for _, size := range [][2]int{{0, 0}, {96, 128}} {
			n := MustBuild(name, 5)
			h, w, suffix := n.InH, n.InW, ""
			if size[0] != 0 {
				h, w, suffix = size[0], size[1], fmt.Sprintf("/%dx%d", size[1], size[0])
			}
			var calib []*tensor.Tensor
			for i := int64(0); i < 4; i++ {
				calib = append(calib, randImage(200+i, n.InC, h, w))
			}
			if err := CalibrateBN(n, calib); err != nil {
				t.Fatal(err)
			}
			imgs := []*tensor.Tensor{randImage(300, n.InC, h, w), randImage(301, n.InC, h, w)}
			for _, prec := range []Precision{PrecisionFP32, PrecisionInt8} {
				key := name + "/" + prec.String() + suffix
				for _, k := range supportedKernels() {
					if err := tensor.ForceKernel(k); err != nil {
						t.Fatalf("force %v: %v", k, err)
					}
					if got := featureHash(n, imgs, prec); got != goldenFeatures[key] {
						t.Errorf("%s under %v: feature hash %#016x, want %#016x", key, k, got, goldenFeatures[key])
					}
				}
			}
		}
	}
}

// featureHash is FNV-1a over the float32 bits of n's features of imgs on
// one workspace.
func featureHash(n *Net, imgs []*tensor.Tensor, prec Precision) uint64 {
	h := fnv.New64a()
	ws := tensor.NewWorkspace()
	for _, img := range imgs {
		f := n.FeaturesWSP(ws, img, prec)
		for _, v := range f.Data {
			u := math.Float32bits(v)
			h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24)})
		}
		ws.Put(f)
	}
	return h.Sum64()
}
