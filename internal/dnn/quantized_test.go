package dnn

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/world"
)

// supportedKernels returns the forceable kernels this host can run.
func supportedKernels() []tensor.Kernel {
	var ks []tensor.Kernel
	for _, k := range []tensor.Kernel{tensor.KernelNoAsm, tensor.KernelSSE, tensor.KernelAVX2} {
		if tensor.KernelSupported(k) {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestInt8ForwardKernelInvariant checks the int8 datapath produces
// bit-identical backbone features under every forceable GEMM kernel: the
// int8 GEMMs are exact integer arithmetic and the fp32 glue (BN, ReLU,
// pooling) is covered by the float bit-exactness contract. It compares the
// head features, not the Output: a freshly built net's heads are zero, so
// its Output is uniform whatever the backbone computed.
func TestInt8ForwardKernelInvariant(t *testing.T) {
	n := MustBuild("ResNet11", 33)
	img := randImage(9, n.InC, n.InH, n.InW)
	prev := tensor.ActiveKernel()
	defer tensor.ForceKernel(prev)
	var want []float32
	for _, k := range supportedKernels() {
		if err := tensor.ForceKernel(k); err != nil {
			t.Fatalf("force %v: %v", k, err)
		}
		got := n.FeaturesWSP(tensor.NewWorkspace(), img, PrecisionInt8).Data
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("kernel %v: int8 feature %d = %v, want %v", k, i, got[i], want[i])
			}
		}
	}
}

// TestInt8AccuracyBound is the accuracy-vs-latency contract on the shipped
// (registry-trained) model: int8 inference must agree with fp32 on nearly
// all rendered views, and head probabilities must stay close. Guards
// against quantization-scheme regressions that would silently trash the
// knob's accuracy side.
func TestInt8AccuracyBound(t *testing.T) {
	oldTrain, oldVal := RegistryTrainPerClass, RegistryValPerClass
	t.Cleanup(func() {
		RegistryTrainPerClass, RegistryValPerClass = oldTrain, oldVal
		ResetRegistry()
	})
	ResetRegistry()
	RegistryTrainPerClass, RegistryValPerClass = 10, 6

	tm, err := Trained("ResNet6")
	if err != nil {
		t.Fatal(err)
	}
	n := tm.Net

	m := world.Tunnel()
	ds := GenerateClean(m, Lateral, 4, 11, n.InW, n.InH)
	if len(ds.Images) == 0 {
		t.Fatal("empty dataset")
	}
	ws := tensor.NewWorkspace()
	agree := 0
	var sumDiff float64
	var maxDiff float64
	for _, img := range ds.Images {
		fp := n.ForwardWSP(ws, img, PrecisionFP32)
		q := n.ForwardWSP(ws, img, PrecisionInt8)
		if tensor.Argmax(fp.Lateral[:]) == tensor.Argmax(q.Lateral[:]) &&
			tensor.Argmax(fp.Angular[:]) == tensor.Argmax(q.Angular[:]) {
			agree++
		}
		for i := 0; i < 3; i++ {
			for _, d := range []float64{
				math.Abs(float64(fp.Lateral[i] - q.Lateral[i])),
				math.Abs(float64(fp.Angular[i] - q.Angular[i])),
			} {
				sumDiff += d
				if d > maxDiff {
					maxDiff = d
				}
			}
		}
	}
	total := len(ds.Images)
	meanDiff := sumDiff / float64(6*total)
	t.Logf("int8 vs fp32 over %d views: argmax agreement %d/%d, mean |Δp| %.4f, max |Δp| %.4f",
		total, agree, total, meanDiff, maxDiff)
	if agree*10 < total*9 { // ≥ 90% agreement
		t.Errorf("int8 argmax agrees on only %d/%d views", agree, total)
	}
	if meanDiff > 0.05 {
		t.Errorf("mean probability deviation %.4f > 0.05", meanDiff)
	}
	if maxDiff > 0.35 {
		t.Errorf("max probability deviation %.4f > 0.35", maxDiff)
	}
}
