package dnn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/world"
)

func tinyInput(seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(1, 48, 64)
	for i := range t.Data {
		t.Data[i] = rng.Float32() - 0.5
	}
	return t
}

func TestVariantsBuild(t *testing.T) {
	for _, name := range Variants() {
		n, err := Build(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
		if n.MACs() == 0 {
			t.Errorf("%s has zero MACs", name)
		}
	}
	if _, err := Build("ResNet99", 1); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestMACsIncreaseWithDepth(t *testing.T) {
	var prev uint64
	for _, name := range Variants() {
		n := MustBuild(name, 1)
		m := n.MACs()
		if m <= prev {
			t.Errorf("%s MACs %d not greater than previous %d", name, m, prev)
		}
		prev = m
	}
}

func TestForwardShapeAndDeterminism(t *testing.T) {
	n := MustBuild("ResNet6", 7)
	in := tinyInput(1)
	a := n.Forward(in)
	b := n.Forward(in)
	if a != b {
		t.Error("forward is not deterministic")
	}
	sum := func(p [3]float32) float32 { return p[0] + p[1] + p[2] }
	if math.Abs(float64(sum(a.Lateral)-1)) > 1e-4 || math.Abs(float64(sum(a.Angular)-1)) > 1e-4 {
		t.Errorf("softmax outputs do not sum to 1: %+v", a)
	}
}

func TestSameSeedSameWeights(t *testing.T) {
	a := MustBuild("ResNet11", 3)
	b := MustBuild("ResNet11", 3)
	ca, cb := a.Backbone[0].(*Conv), b.Backbone[0].(*Conv)
	for i := range ca.W.Data {
		if ca.W.Data[i] != cb.W.Data[i] {
			t.Fatal("same-seed builds differ")
		}
	}
	c := MustBuild("ResNet11", 4)
	if c.Backbone[0].(*Conv).W.Data[0] == ca.W.Data[0] {
		t.Error("different seeds produced identical first weight")
	}
}

func TestFeatureDimMatchesFeatures(t *testing.T) {
	for _, name := range []string{"ResNet6", "ResNet14"} {
		n := MustBuild(name, 2)
		f := n.Features(tinyInput(3))
		if f.Len() != n.FeatureDim() {
			t.Errorf("%s: features %d, FeatureDim %d", name, f.Len(), n.FeatureDim())
		}
		dims := n.TapDims()
		total := 0
		for _, d := range dims {
			total += d
		}
		if total != n.FeatureDim() {
			t.Errorf("%s: TapDims sum %d != FeatureDim %d", name, total, n.FeatureDim())
		}
	}
}

func TestDescribeConsistency(t *testing.T) {
	n := MustBuild("ResNet14", 1)
	ops := n.Describe()
	if len(ops) < 20 {
		t.Errorf("only %d ops described", len(ops))
	}
	var matmuls, streams int
	for _, op := range ops {
		switch op.Kind {
		case OpMatMul:
			matmuls++
			if op.M <= 0 || op.K <= 0 || op.N <= 0 {
				t.Errorf("degenerate matmul %+v", op)
			}
		case OpStream:
			streams++
			if op.Bytes == 0 {
				t.Errorf("zero-byte stream op")
			}
		}
	}
	if matmuls == 0 || streams == 0 {
		t.Error("expected both matmul and stream ops")
	}
}

func TestOpDescMACs(t *testing.T) {
	if (OpDesc{Kind: OpMatMul, M: 2, K: 3, N: 4}).MACs() != 24 {
		t.Error("MACs wrong")
	}
	if (OpDesc{Kind: OpStream, Bytes: 100}).MACs() != 0 {
		t.Error("stream op should have zero MACs")
	}
}

func TestDatasetGeneration(t *testing.T) {
	m := world.Tunnel()
	ds := Generate(m, Angular, 4, 9, 32, 24)
	if ds.Len() != 12 {
		t.Fatalf("dataset has %d samples, want 12", ds.Len())
	}
	counts := map[int]int{}
	for _, l := range ds.Labels {
		counts[l]++
	}
	if counts[ClassLeft] != 4 || counts[ClassCenter] != 4 || counts[ClassRight] != 4 {
		t.Errorf("unbalanced classes: %v", counts)
	}
	for _, im := range ds.Images {
		if im.Dim(1) != 24 || im.Dim(2) != 32 {
			t.Fatalf("image shape %v", im.Shape)
		}
	}
	// Deterministic per seed.
	ds2 := Generate(m, Angular, 4, 9, 32, 24)
	if ds.Images[0].Data[0] != ds2.Images[0].Data[0] {
		t.Error("dataset not deterministic")
	}
}

func TestLabelFunctions(t *testing.T) {
	if LateralClass(1.0, 2.0) != ClassLeft || LateralClass(-1.0, 2.0) != ClassRight || LateralClass(0.1, 2.0) != ClassCenter {
		t.Error("LateralClass wrong")
	}
	if AngularClass(0.5) != ClassLeft || AngularClass(-0.5) != ClassRight || AngularClass(0.0) != ClassCenter {
		t.Error("AngularClass wrong")
	}
}

func TestCalibrateBNSetsStats(t *testing.T) {
	n := MustBuild("ResNet6", 5)
	imgs := []*tensor.Tensor{tinyInput(1), tinyInput(2), tinyInput(3)}
	if err := CalibrateBN(n, imgs); err != nil {
		t.Fatal(err)
	}
	bn := n.Backbone[1].(*BatchNorm)
	var moved bool
	for i := range bn.Mean {
		if bn.Mean[i] != 0 || bn.Var[i] != 1 {
			moved = true
		}
	}
	if !moved {
		t.Error("BN statistics unchanged after calibration")
	}
	if err := CalibrateBN(n, nil); err == nil {
		t.Error("CalibrateBN accepted empty input")
	}
}

func TestTrainHeadLearnsSeparableData(t *testing.T) {
	// Synthetic: class = argmax of first three features.
	rng := rand.New(rand.NewSource(8))
	var feats []*tensor.Tensor
	var labels []int
	for i := 0; i < 300; i++ {
		f := tensor.New(8)
		for j := range f.Data {
			f.Data[j] = rng.Float32()
		}
		class := tensor.Argmax(f.Data[:3])
		feats = append(feats, f)
		labels = append(labels, class)
	}
	head := NewDense(3, 8)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 80
	if err := TrainHead(head, feats, labels, cfg); err != nil {
		t.Fatal(err)
	}
	if acc := HeadAccuracy(head, feats, labels); acc < 0.9 {
		t.Errorf("training accuracy %v on separable data", acc)
	}
}

func TestTrainHeadStackedPicksInformativeSegment(t *testing.T) {
	// Segment 0 (4 dims) is pure noise; segment 1 (4 dims) is separable.
	rng := rand.New(rand.NewSource(12))
	var feats []*tensor.Tensor
	var labels []int
	for i := 0; i < 400; i++ {
		f := tensor.New(8)
		for j := 0; j < 4; j++ {
			f.Data[j] = rng.Float32()
		}
		class := i % 3
		for j := 0; j < 3; j++ {
			f.Data[4+j] = float32(rng.NormFloat64() * 0.2)
		}
		f.Data[4+class] += 1
		feats = append(feats, f)
		labels = append(labels, class)
	}
	head := NewDense(3, 8)
	if err := TrainHeadStacked(head, []int{4, 4}, feats, labels, DefaultTrainConfig()); err != nil {
		t.Fatal(err)
	}
	if acc := HeadAccuracy(head, feats, labels); acc < 0.85 {
		t.Errorf("stacked accuracy %v; should exploit the informative segment", acc)
	}
}

func TestTrainHeadStackedValidation(t *testing.T) {
	head := NewDense(3, 8)
	if err := TrainHeadStacked(head, []int{4}, nil, nil, DefaultTrainConfig()); err == nil {
		t.Error("accepted empty dataset")
	}
	f := []*tensor.Tensor{tensor.New(8)}
	if err := TrainHeadStacked(head, []int{3, 3}, f, []int{0}, DefaultTrainConfig()); err == nil {
		t.Error("accepted mismatched segment sum")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	n := seedHeads(MustBuild("ResNet6", 11), 12)
	var buf bytes.Buffer
	if err := Save(&buf, n); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := tinyInput(5)
	a, b := n.Forward(in), got.Forward(in)
	if a != b {
		t.Errorf("loaded model differs: %+v vs %+v", a, b)
	}
	if got.Name != "ResNet6" {
		t.Errorf("name = %q", got.Name)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("Load accepted garbage")
	}
}

func TestHeadKindString(t *testing.T) {
	if Lateral.String() != "lateral" || Angular.String() != "angular" {
		t.Error("HeadKind strings wrong")
	}
}

func TestImageJitterIsBounded(t *testing.T) {
	// Inputs after jitter must stay finite and roughly in range.
	m := world.Tunnel()
	ds := Generate(m, Lateral, 2, 3, 32, 24)
	for _, im := range ds.Images {
		for _, v := range im.Data {
			if math.IsNaN(float64(v)) || v < -3 || v > 3 {
				t.Fatalf("jittered pixel out of range: %v", v)
			}
		}
	}
}

func TestRegistryCachesAndIsolates(t *testing.T) {
	// Shrink the budget, train once, and verify the cache returns the
	// identical model object without retraining.
	oldTrain, oldVal := RegistryTrainPerClass, RegistryValPerClass
	t.Cleanup(func() {
		RegistryTrainPerClass, RegistryValPerClass = oldTrain, oldVal
		ResetRegistry()
	})
	ResetRegistry()
	RegistryTrainPerClass, RegistryValPerClass = 10, 6

	a, err := Trained("ResNet6")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Trained("ResNet6")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("registry did not cache the trained model")
	}
	if a.Result.CleanLateralAccuracy == 0 && a.Result.CleanAngularAccuracy == 0 {
		t.Error("clean-domain accuracy not evaluated")
	}
	if _, err := Trained("ResNet99"); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestGenerateCleanVsAugmented(t *testing.T) {
	m := world.Tunnel()
	clean := GenerateClean(m, Lateral, 3, 7, 32, 24)
	aug := Generate(m, Lateral, 3, 7, 32, 24)
	if clean.Len() != aug.Len() {
		t.Fatal("length mismatch")
	}
	// Clean pixels stay in the renderer's native [-0.5, 0.5] band.
	for _, im := range clean.Images {
		for _, v := range im.Data {
			if v < -0.5-1e-6 || v > 0.5+1e-6 {
				t.Fatalf("clean pixel %v outside render range", v)
			}
		}
	}
	// The augmented set must differ from the clean one (jitter applied).
	same := true
	for i := range clean.Images[0].Data {
		if clean.Images[0].Data[i] != aug.Images[0].Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("augmented dataset identical to clean dataset")
	}
}
