package dnn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
	"repro/internal/world"
)

func randImage(seed int64, c, h, w int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	img := tensor.New(c, h, w)
	for i := range img.Data {
		img.Data[i] = rng.Float32()
	}
	return img
}

// seedHeads gives both of n's heads seeded non-zero weights and biases, so
// its Output depends on the backbone: a freshly built net's heads are zero,
// which maps every image to the uniform [1/3 1/3 1/3].
func seedHeads(n *Net, seed int64) *Net {
	rng := rand.New(rand.NewSource(seed))
	for _, h := range []*Dense{n.HeadLateral, n.HeadAngular} {
		scale := 1 / math.Sqrt(float64(h.W.Shape[1]))
		for i := range h.W.Data {
			h.W.Data[i] = float32(rng.NormFloat64() * scale)
		}
		for i := range h.B {
			h.B[i] = float32(rng.NormFloat64() * 0.1)
		}
	}
	return n
}

// TestForwardWSBitIdentical checks workspace inference against the
// allocating path bit for bit, across repeated runs that recycle (dirty)
// scratch buffers and across variants with and without projection shortcuts.
func TestForwardWSBitIdentical(t *testing.T) {
	for _, name := range []string{"ResNet6", "ResNet11"} {
		n := seedHeads(MustBuild(name, 42), 43)
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

// TestForwardWarmupAllocs pins what a fresh workspace costs: the heap
// allocations of four ResNet14 forwards on a new workspace, on a net whose
// weight caches are already filled, at GOMAXPROCS=1 (above it the fp32
// GEMM starts band goroutines). All of them are the first forward growing
// the pools; the next three allocate nothing. A conv's per-call scratch
// drawn from the activation pool again (the tail vector, the offset table)
// raises the counts above the limits.
func TestForwardWarmupAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	frames := GenerateClean(world.Tunnel(), Lateral, 4, 5, 64, 48).Images
	n := MustBuild("ResNet14", 1)
	if err := CalibrateBN(n, frames); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		prec  Precision
		limit uint64
	}{{PrecisionFP32, 34}, {PrecisionInt8, 36}} {
		n.ForwardWSP(tensor.NewWorkspace(), frames[0], c.prec) // fill the weight caches
		ws := tensor.NewWorkspace()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 4; i++ {
			n.ForwardWSP(ws, frames[i%len(frames)], c.prec)
		}
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got > c.limit {
			t.Errorf("ResNet14/%v: four forwards on a fresh workspace made %d allocations, want at most %d",
				c.prec, got, c.limit)
		} else {
			t.Logf("ResNet14/%v: %d allocations", c.prec, got)
		}
	}
}
