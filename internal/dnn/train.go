package dnn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// TrainConfig controls head training (multinomial logistic regression over
// frozen backbone features — the from-scratch stand-in for the paper's
// PyTorch fine-tuning; see DESIGN.md).
type TrainConfig struct {
	Epochs int
	LR     float64
	L2     float64
	Batch  int
	Seed   int64
}

// DefaultTrainConfig returns a well-behaved configuration.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 120, LR: 0.08, L2: 8e-4, Batch: 16, Seed: 1}
}

// ExtractFeatures runs the backbone over every image, in parallel across
// CPU cores (results are positionally deterministic).
func ExtractFeatures(n *Net, images []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(images))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(images) {
		workers = len(images)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One workspace per goroutine: backbone scratch is recycled
			// across images instead of reallocated per forward pass. Only
			// the returned feature vector outlives the loop iteration, so
			// it is copied out and its buffer returned to the pool.
			ws := tensor.NewWorkspace()
			for i := range idx {
				f := n.FeaturesWSP(ws, images[i], PrecisionFP32)
				out[i] = f.Clone()
				ws.Put(f)
			}
		}()
	}
	for i := range images {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// TrainHead fits a 3-class softmax head on the given features via SGD with
// feature standardization folded back into the head weights, so inference
// consumes raw backbone features.
func TrainHead(head *Dense, feats []*tensor.Tensor, labels []int, cfg TrainConfig) error {
	if len(feats) == 0 || len(feats) != len(labels) {
		return fmt.Errorf("dnn: train set has %d features, %d labels", len(feats), len(labels))
	}
	d := feats[0].Len()
	if err := head.check(d); err != nil {
		return err
	}
	rows := make([][]float32, len(feats))
	for i, f := range feats {
		rows[i] = f.Data
	}
	w, b := trainSoftmax(rows, labels, d, cfg)
	for c := 0; c < 3; c++ {
		for j := 0; j < d; j++ {
			head.W.Data[c*d+j] = float32(w[c*d+j])
		}
		head.B[c] = float32(b[c])
	}
	return nil
}

// TrainHeadStacked fits the head as a stack of per-segment softmax models
// (one per backbone tap) combined by learned stage weights, then folds the
// stack into the single linear head. Segment-wise estimation keeps
// low-signal deep features from drowning informative shallow ones while
// still letting informative deep stages contribute — accuracy is therefore
// non-decreasing in network depth, the Table 3 trend.
func TrainHeadStacked(head *Dense, segs []int, feats []*tensor.Tensor, labels []int, cfg TrainConfig) error {
	if len(segs) == 0 {
		return fmt.Errorf("dnn: no feature segments")
	}
	if len(feats) == 0 || len(feats) != len(labels) {
		return fmt.Errorf("dnn: train set has %d features, %d labels", len(feats), len(labels))
	}
	total := 0
	for _, s := range segs {
		total += s
	}
	if total != feats[0].Len() {
		return fmt.Errorf("dnn: segments sum to %d, features are %d", total, feats[0].Len())
	}
	if err := head.check(total); err != nil {
		return err
	}
	if len(segs) == 1 {
		return TrainHead(head, feats, labels, cfg)
	}

	// Split off a holdout fold for fitting the stage weights: overfit deep
	// segments look perfect on their own training data, so alpha must be
	// judged on samples the segment models never saw.
	var fitIdx, holdIdx []int
	for i := range feats {
		if i%5 == 4 {
			holdIdx = append(holdIdx, i)
		} else {
			fitIdx = append(fitIdx, i)
		}
	}

	// Per-segment models (fit fold) and holdout logits.
	type segModel struct {
		w []float64
		b [3]float64
	}
	models := make([]segModel, len(segs))
	logits := make([][][3]float64, len(segs)) // [seg][holdout sample][class]
	off := 0
	for si, d := range segs {
		rows := make([][]float32, len(fitIdx))
		rowLabels := make([]int, len(fitIdx))
		for k, i := range fitIdx {
			rows[k] = feats[i].Data[off : off+d]
			rowLabels[k] = labels[i]
		}
		w, b := trainSoftmax(rows, rowLabels, d, cfg)
		models[si] = segModel{w: w, b: b}
		zl := make([][3]float64, len(holdIdx))
		for k, i := range holdIdx {
			x := feats[i].Data[off : off+d]
			for c := 0; c < 3; c++ {
				s := b[c]
				row := w[c*d : (c+1)*d]
				for j, v := range x {
					s += row[j] * float64(v)
				}
				zl[k][c] = s
			}
		}
		logits[si] = zl
		off += d
	}
	holdLabels := make([]int, len(holdIdx))
	for k, i := range holdIdx {
		holdLabels[k] = labels[i]
	}
	n := len(holdIdx)

	// Gate out stages that generalize clearly worse than the best stage:
	// without the gate, gradient fitting can still trade a little holdout
	// loss for a stage that hurts top-1 accuracy.
	segAcc := make([]float64, len(segs))
	bestAcc := 0.0
	for si := range segs {
		correct := 0
		for k := range holdIdx {
			z := logits[si][k]
			arg := 0
			for c := 1; c < 3; c++ {
				if z[c] > z[arg] {
					arg = c
				}
			}
			if arg == holdLabels[k] {
				correct++
			}
		}
		segAcc[si] = float64(correct) / float64(len(holdIdx))
		if segAcc[si] > bestAcc {
			bestAcc = segAcc[si]
		}
	}
	gated := make([]bool, len(segs))
	for si := range segs {
		gated[si] = segAcc[si] < bestAcc-0.03
	}

	// Learn stage weights alpha by gradient descent on the combined
	// cross-entropy (a handful of parameters; no overfitting risk).
	alpha := make([]float64, len(segs))
	for i := range alpha {
		if !gated[i] {
			alpha[i] = 1.0 / float64(len(segs))
		}
	}
	for iter := 0; iter < 400; iter++ {
		grad := make([]float64, len(segs))
		for i := 0; i < n; i++ {
			var z [3]float64
			for si := range segs {
				for c := 0; c < 3; c++ {
					z[c] += alpha[si] * logits[si][i][c]
				}
			}
			m := math.Max(z[0], math.Max(z[1], z[2]))
			var sum float64
			var p [3]float64
			for c := 0; c < 3; c++ {
				p[c] = math.Exp(z[c] - m)
				sum += p[c]
			}
			for c := 0; c < 3; c++ {
				p[c] /= sum
				g := p[c]
				if c == holdLabels[i] {
					g -= 1
				}
				for si := range segs {
					grad[si] += g * logits[si][i][c]
				}
			}
		}
		for si := range segs {
			if gated[si] {
				continue
			}
			alpha[si] -= 0.5 / float64(n) * grad[si]
			if alpha[si] < 0 {
				alpha[si] = 0
			}
		}
	}

	// Fold the stack into the deployed linear head.
	off = 0
	for si, d := range segs {
		for c := 0; c < 3; c++ {
			for j := 0; j < d; j++ {
				head.W.Data[c*total+off+j] = float32(alpha[si] * models[si].w[c*d+j])
			}
		}
		off += d
	}
	for c := 0; c < 3; c++ {
		var b float64
		for si := range segs {
			b += alpha[si] * models[si].b[c]
		}
		head.B[c] = float32(b)
	}
	return nil
}

// trainSoftmax is the shared SGD core: it fits a 3-class softmax regression
// on raw feature rows (standardizing internally and folding the transform
// back out) and returns raw-space weights w[3*d] and biases b[3].
func trainSoftmax(rowsIn [][]float32, labels []int, d int, cfg TrainConfig) ([]float64, [3]float64) {
	// Standardize features.
	mu := make([]float64, d)
	sd := make([]float64, d)
	for _, f := range rowsIn {
		for j, v := range f {
			mu[j] += float64(v)
		}
	}
	n := float64(len(rowsIn))
	for j := range mu {
		mu[j] /= n
	}
	for _, f := range rowsIn {
		for j, v := range f {
			dv := float64(v) - mu[j]
			sd[j] += dv * dv
		}
	}
	for j := range sd {
		sd[j] = math.Sqrt(sd[j]/n + 1e-8)
	}
	std := make([][]float32, len(rowsIn))
	for i, f := range rowsIn {
		row := make([]float32, d)
		for j, v := range f {
			row[j] = float32((float64(v) - mu[j]) / sd[j])
		}
		std[i] = row
	}

	// SGD on W[3][d], B[3].
	w := make([]float64, 3*d)
	b := make([]float64, 3)
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(std))
	logits := make([]float64, 3)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LR / (1 + 0.08*float64(epoch))
		// Reshuffle deterministically per epoch.
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			x := std[i]
			for c := 0; c < 3; c++ {
				s := b[c]
				row := w[c*d : (c+1)*d]
				for j, v := range x {
					s += row[j] * float64(v)
				}
				logits[c] = s
			}
			// Softmax.
			max := math.Max(logits[0], math.Max(logits[1], logits[2]))
			var sum float64
			var p [3]float64
			for c := 0; c < 3; c++ {
				p[c] = math.Exp(logits[c] - max)
				sum += p[c]
			}
			for c := 0; c < 3; c++ {
				p[c] /= sum
			}
			// Gradient step.
			for c := 0; c < 3; c++ {
				g := p[c]
				if c == labels[i] {
					g -= 1
				}
				row := w[c*d : (c+1)*d]
				for j, v := range x {
					row[j] -= lr * (g*float64(v) + cfg.L2*row[j])
				}
				b[c] -= lr * g
			}
		}
	}

	// Fold standardization back out: W'·x_raw = W·(x_raw−μ)/σ.
	var bOut [3]float64
	for c := 0; c < 3; c++ {
		var shift float64
		for j := 0; j < d; j++ {
			scaled := w[c*d+j] / sd[j]
			w[c*d+j] = scaled
			shift += scaled * mu[j]
		}
		bOut[c] = b[c] - shift
	}
	return w, bOut
}

// HeadAccuracy evaluates a head's top-1 accuracy over raw features.
func HeadAccuracy(head *Dense, feats []*tensor.Tensor, labels []int) float64 {
	if len(feats) == 0 {
		return 0
	}
	correct := 0
	for i, f := range feats {
		if tensor.Argmax(head.Forward(f).Data) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(feats))
}

// TrainResult records the outcome of training one network.
type TrainResult struct {
	LateralAccuracy float64 // augmented-distribution validation accuracy, lateral head
	AngularAccuracy float64 // augmented-distribution validation accuracy, angular head
	// Clean*Accuracy are measured on the deployment distribution (the
	// unrandomized map with no photometric jitter) — the frames the
	// closed-loop flights actually see.
	CleanLateralAccuracy float64
	CleanAngularAccuracy float64
}

// Accuracy returns the mean of both heads' augmented-validation accuracies.
func (r TrainResult) Accuracy() float64 {
	return (r.LateralAccuracy + r.AngularAccuracy) / 2
}

// CleanAccuracy returns the mean deployment-distribution accuracy — the
// closest analogue of the paper's Table 3 validation accuracy.
func (r TrainResult) CleanAccuracy() float64 {
	return (r.CleanLateralAccuracy + r.CleanAngularAccuracy) / 2
}

// Train calibrates the network's BN statistics and trains both heads on
// their respective datasets, reporting validation accuracy on the held-out
// sets.
func Train(n *Net, latTrain, angTrain, latVal, angVal *Dataset, cfg TrainConfig) (TrainResult, error) {
	if latTrain.Head != Lateral || angTrain.Head != Angular {
		return TrainResult{}, fmt.Errorf("dnn: dataset/head mismatch")
	}
	// BN calibration on a slice of the lateral training set.
	calN := 32
	if calN > latTrain.Len() {
		calN = latTrain.Len()
	}
	if err := CalibrateBN(n, latTrain.Images[:calN]); err != nil {
		return TrainResult{}, err
	}

	latFeats := ExtractFeatures(n, latTrain.Images)
	angFeats := ExtractFeatures(n, angTrain.Images)
	segs := n.TapDims()
	if err := TrainHeadStacked(n.HeadLateral, segs, latFeats, latTrain.Labels, cfg); err != nil {
		return TrainResult{}, err
	}
	if err := TrainHeadStacked(n.HeadAngular, segs, angFeats, angTrain.Labels, cfg); err != nil {
		return TrainResult{}, err
	}

	var res TrainResult
	res.LateralAccuracy = HeadAccuracy(n.HeadLateral, ExtractFeatures(n, latVal.Images), latVal.Labels)
	res.AngularAccuracy = HeadAccuracy(n.HeadAngular, ExtractFeatures(n, angVal.Images), angVal.Labels)
	return res, nil
}
