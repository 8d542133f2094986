package dnn

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// Net is a dual-headed trail-navigation network (Figure 8): a shared
// backbone, a coarse spatial average pool, and two 3-class heads — y_l
// (lateral) and y_ω (angular).
type Net struct {
	Name          string
	InC, InH, InW int
	Backbone      []Layer
	// Taps are backbone indices after which activations are pooled and
	// concatenated into the head features (hypercolumn-style): deeper
	// variants strictly extend shallower ones' feature sets, which is what
	// lets capacity grow with depth under frozen convolutional weights.
	Taps        []int
	PoolGY      int // pooling grid preserving coarse spatial layout
	PoolGX      int
	HeadLateral *Dense
	HeadAngular *Dense

	// featDim caches FeatureDim (a shape-propagation walk over the whole
	// backbone), rebuilt lazily after gob decoding. The backbone topology is
	// fixed after construction, so the cache never goes stale.
	featDim  int
	featOnce sync.Once
}

// Output is one inference result: softmax class probabilities.
type Output struct {
	Lateral [3]float32 // P(view class left/center/right) for lateral offset
	Angular [3]float32 // P(view class left/center/right) for heading
}

// Classes used by both heads. Semantics (this repo's +Y-left, +yaw-CCW
// frame; see dataset.go for the labeling rule):
//
//	ClassLeft   — the UAV is offset/rotated to the LEFT of the trail.
//	ClassCenter — aligned.
//	ClassRight  — offset/rotated to the RIGHT.
const (
	ClassLeft = iota
	ClassCenter
	ClassRight
)

// FeatureDim returns the flattened feature vector length feeding the heads.
func (n *Net) FeatureDim() int {
	dim := 0
	s := [3]int{n.InC, n.InH, n.InW}
	for i, l := range n.Backbone {
		_, s = l.Describe(s[0], s[1], s[2])
		if n.tapped(i) {
			dim += s[0] * n.PoolGY * n.PoolGX
		}
	}
	return dim
}

func (n *Net) tapped(i int) bool {
	for _, t := range n.Taps {
		if t == i {
			return true
		}
	}
	return false
}

// TapDims returns the per-tap feature segment lengths, in concatenation
// order (used by the stacked head trainer).
func (n *Net) TapDims() []int {
	var dims []int
	s := [3]int{n.InC, n.InH, n.InW}
	for i, l := range n.Backbone {
		_, s = l.Describe(s[0], s[1], s[2])
		if n.tapped(i) {
			dims = append(dims, s[0]*n.PoolGY*n.PoolGX)
		}
	}
	return dims
}

// featureDim is FeatureDim with the result cached after the first call.
func (n *Net) featureDim() int {
	n.featOnce.Do(func() { n.featDim = n.FeatureDim() })
	return n.featDim
}

// Features runs the backbone, pooling each tapped activation into the
// concatenated hypercolumn feature vector.
func (n *Net) Features(img *tensor.Tensor) *tensor.Tensor {
	return n.FeaturesWSP(nil, img, PrecisionFP32)
}

// Forward runs a full inference: backbone, pool, both heads, softmax.
func (n *Net) Forward(img *tensor.Tensor) Output {
	return n.ForwardWSP(nil, img, PrecisionFP32)
}

// Describe returns the network's full operation list for the SoC timing
// model, including the image normalization pass and both heads.
func (n *Net) Describe() []OpDesc {
	inBytes := uint64(n.InC*n.InH*n.InW) * f32
	ops := []OpDesc{{Kind: OpStream, Bytes: 2 * inBytes}} // normalize/copy-in
	s := [3]int{n.InC, n.InH, n.InW}
	for i, l := range n.Backbone {
		var o []OpDesc
		o, s = l.Describe(s[0], s[1], s[2])
		ops = append(ops, o...)
		if n.tapped(i) {
			// Pooling pass over the tapped activation.
			ops = append(ops, OpDesc{Kind: OpStream, Bytes: uint64(s[0]*s[1]*s[2]) * f32})
		}
	}
	ops = append(ops, n.HeadLateral.Describe(), n.HeadAngular.Describe())
	return ops
}

// MACs returns the total multiply-accumulate count of one inference.
func (n *Net) MACs() uint64 {
	var total uint64
	for _, op := range n.Describe() {
		total += op.MACs()
	}
	return total
}

// Validate checks internal consistency (head dims vs backbone output).
func (n *Net) Validate() error {
	if n.HeadLateral == nil || n.HeadAngular == nil {
		return fmt.Errorf("dnn: %s is missing heads", n.Name)
	}
	d := n.FeatureDim()
	if err := n.HeadLateral.check(d); err != nil {
		return err
	}
	return n.HeadAngular.check(d)
}

// Variants lists the evaluated networks in Table 3 order.
func Variants() []string {
	return []string{"ResNet6", "ResNet11", "ResNet14", "ResNet18", "ResNet34"}
}

// Build constructs a named variant with deterministic seeded weights.
// Supported names are those returned by Variants.
func Build(name string, seed int64) (*Net, error) {
	type stage struct{ ch, blocks int }
	var stages []stage
	switch name {
	case "ResNet6":
		stages = []stage{{16, 2}}
	case "ResNet11":
		stages = []stage{{16, 2}, {32, 2}}
	case "ResNet14":
		stages = []stage{{16, 2}, {32, 2}, {64, 2}}
	case "ResNet18":
		stages = []stage{{16, 2}, {32, 2}, {64, 2}, {128, 2}}
	case "ResNet34":
		stages = []stage{{16, 3}, {32, 4}, {64, 6}, {128, 3}}
	default:
		return nil, fmt.Errorf("dnn: unknown variant %q (want one of %v)", name, Variants())
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Net{
		Name: name,
		InC:  1, InH: 48, InW: 64,
		PoolGY: 2, PoolGX: 4,
	}
	// Stem: 5×5 stride-2 conv to 24×32.
	n.Backbone = append(n.Backbone,
		NewConv(rng, stages[0].ch, 1, 5, 2, 2),
		NewBatchNorm(stages[0].ch),
		ReLU{},
	)
	prev := stages[0].ch
	for si, st := range stages {
		for b := 0; b < st.blocks; b++ {
			stride := 1
			if b == 0 && si > 0 {
				stride = 2
			}
			n.Backbone = append(n.Backbone, NewBlock(rng, prev, st.ch, stride))
			prev = st.ch
		}
		n.Taps = append(n.Taps, len(n.Backbone)-1) // tap each stage's output
	}
	d := n.FeatureDim()
	n.HeadLateral = NewDense(3, d)
	n.HeadAngular = NewDense(3, d)
	return n, nil
}

// MustBuild is Build that panics on error, for tests and tooling.
func MustBuild(name string, seed int64) *Net {
	n, err := Build(name, seed)
	if err != nil {
		panic(err)
	}
	return n
}
