package dnn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func randImage(seed int64, c, h, w int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	img := tensor.New(c, h, w)
	for i := range img.Data {
		img.Data[i] = rng.Float32()
	}
	return img
}

// TestForwardWSBitIdentical checks workspace inference against the
// allocating path bit for bit, across repeated runs that recycle (dirty)
// scratch buffers and across variants with and without projection shortcuts.
func TestForwardWSBitIdentical(t *testing.T) {
	for _, name := range []string{"ResNet6", "ResNet11"} {
		n := MustBuild(name, 42)
		ws := tensor.NewWorkspace()
		for iter := int64(0); iter < 3; iter++ {
			img := randImage(100+iter, n.InC, n.InH, n.InW)
			want := n.Forward(img)
			got := n.ForwardWSP(ws, img, PrecisionFP32)
			for i := 0; i < 3; i++ {
				if math.Float32bits(got.Lateral[i]) != math.Float32bits(want.Lateral[i]) ||
					math.Float32bits(got.Angular[i]) != math.Float32bits(want.Angular[i]) {
					t.Fatalf("%s iter %d: ForwardWSP %v/%v, want %v/%v",
						name, iter, got.Lateral, got.Angular, want.Lateral, want.Angular)
				}
			}
		}
	}
}

// TestFeaturesWSBitIdentical checks the hypercolumn feature vector from the
// workspace path matches the allocating path exactly and leaves the input
// image untouched.
func TestFeaturesWSBitIdentical(t *testing.T) {
	n := MustBuild("ResNet6", 7)
	img := randImage(5, n.InC, n.InH, n.InW)
	orig := img.Clone()
	want := n.Features(img)
	ws := tensor.NewWorkspace()
	for iter := 0; iter < 2; iter++ {
		got := n.FeaturesWSP(ws, img, PrecisionFP32)
		if len(got.Data) != len(want.Data) {
			t.Fatalf("feature dim %d, want %d", len(got.Data), len(want.Data))
		}
		for i := range got.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("iter %d feature %d = %v, want %v", iter, i, got.Data[i], want.Data[i])
			}
		}
		ws.Put(got)
	}
	for i := range img.Data {
		if img.Data[i] != orig.Data[i] {
			t.Fatal("FeaturesWSP mutated the input image")
		}
	}
}

// TestExtractFeaturesMatchesSerial checks the worker-pool feature extractor
// against one-at-a-time Features calls.
func TestExtractFeaturesMatchesSerial(t *testing.T) {
	n := MustBuild("ResNet6", 3)
	images := make([]*tensor.Tensor, 5)
	for i := range images {
		images[i] = randImage(int64(i), n.InC, n.InH, n.InW)
	}
	got := ExtractFeatures(n, images)
	for i, img := range images {
		want := n.Features(img)
		for j := range want.Data {
			if math.Float32bits(got[i].Data[j]) != math.Float32bits(want.Data[j]) {
				t.Fatalf("image %d feature %d = %v, want %v", i, j, got[i].Data[j], want.Data[j])
			}
		}
	}
}
