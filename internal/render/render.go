// Package render implements the synthetic first-person-view camera used in
// place of AirSim's Unreal-Engine renderer. It ray-casts the world geometry
// and shades hits with procedural textures, Lambertian lighting, and distance
// fog, producing grayscale images that feed the DNN controllers.
//
// The output is deliberately simple but information-rich: left and right
// corridor walls carry distinct procedural materials, perspective and fog
// encode depth, and the floor carries a checker pattern — the same visual
// cues the paper's TrailNet-style classifiers learn from.
package render

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"repro/internal/vec"
	"repro/internal/world"
)

// Image is a grayscale image with pixel values in [0,1], row-major from the
// top-left corner.
type Image struct {
	W, H int
	Pix  []float32
}

// NewImage allocates a W×H image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]float32, w*h)}
}

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) float32 { return im.Pix[y*im.W+x] }

// Set writes the pixel at (x, y).
func (im *Image) Set(x, y int, v float32) { im.Pix[y*im.W+x] = v }

// Bytes returns the image quantized to 8-bit grayscale — the representation
// transmitted over the RoSÉ bridge I/O queues.
func (im *Image) Bytes() []byte {
	return im.BytesInto(nil)
}

// BytesInto quantizes into dst when it has sufficient capacity, growing it
// otherwise, and returns the filled slice. Transmit paths pass a per-link
// scratch buffer to avoid a per-frame allocation.
func (im *Image) BytesInto(dst []byte) []byte {
	if cap(dst) < len(im.Pix) {
		dst = make([]byte, len(im.Pix))
	}
	dst = dst[:len(im.Pix)]
	for i, p := range im.Pix {
		v := p * 255
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		dst[i] = byte(v)
	}
	return dst
}

// FromBytes reconstructs an image from its 8-bit representation.
func FromBytes(w, h int, data []byte) (*Image, error) {
	if len(data) != w*h {
		return nil, fmt.Errorf("render: image payload is %d bytes, want %d (%dx%d)", len(data), w*h, w, h)
	}
	im := NewImage(w, h)
	for i, b := range data {
		im.Pix[i] = float32(b) / 255
	}
	return im, nil
}

// WritePGM writes the image in binary PGM format, handy for eyeballing
// renders during development.
func (im *Image) WritePGM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	_, err := w.Write(im.Bytes())
	return err
}

// Camera is a pinhole FPV camera. The paper's drone carries a 90° FOV
// front-facing camera (Section 4.1).
type Camera struct {
	W, H   int
	FOVDeg float64 // horizontal field of view in degrees
	// MaxDist bounds ray casting; beyond it pixels show sky/fog.
	MaxDist float64
}

// DefaultCamera matches the evaluation setup: 90° FOV grayscale FPV camera.
func DefaultCamera(w, h int) Camera {
	return Camera{W: w, H: h, FOVDeg: 90, MaxDist: 120}
}

// Pose is the camera pose: world position and orientation (body frame:
// X forward, Y left, Z up; camera looks along +X).
type Pose struct {
	Pos vec.Vec3
	Ori vec.Quat
}

// lighting parameters shared by all renders.
var lightDir = vec.V3(-0.3, 0.2, -0.9).Unit() // sun direction (pointing down)

const (
	fogDistance = 45.0 // metres to ~63% fog
	skyTop      = 0.92
	skyBottom   = 0.70
	ambient     = 0.35
)

// Caster is the geometry interface RenderCaster casts rays against: both
// *world.Map and *world.Scene satisfy it, and so do test references.
// RenderInto and RenderSceneInto cast through a world.RayFan instead; the
// render internals are generic over the frame's caster type, so every path
// runs the exact same shading code.
type Caster interface {
	Raycast(origin, dir vec.Vec3, maxDist float64) (world.Hit, bool)
}

// Render draws the world from the given pose into a fresh image.
func (c Camera) Render(m *world.Map, pose Pose) *Image {
	im := NewImage(c.W, c.H)
	c.RenderInto(m, pose, im)
	return im
}

// renderParallelPixels is the W·H threshold above which RenderInto splits the
// frame into per-core row bands. Small thumbnails stay serial: goroutine
// startup would cost more than the rays.
const renderParallelPixels = 2048

// RenderInto draws into an existing image (must match the camera dimensions),
// avoiding per-frame allocation in tight simulation loops. The map's walls
// are binned once per frame into a world.RayFan at the camera, so each ray
// tests only the walls in its direction; large frames are then ray-cast in
// parallel row bands that share the fan. Every pixel is a pure function of
// the pose and world, so the output is identical to a serial render that
// casts every ray with Map.Raycast.
func (c Camera) RenderInto(m *world.Map, pose Pose, im *Image) {
	f := fanPool.Get().(*world.RayFan)
	f.Build(m, pose.Pos)
	renderInto(c, f, pose.Ori, im)
	fanPool.Put(f)
}

// RenderSceneInto draws a dynamic scene (static map + moving obstacles +
// peer bodies) into an existing image: the static walls through a fan, as
// in RenderInto, then the dynamic walls and bodies as Scene.Raycast tests
// them.
func (c Camera) RenderSceneInto(sc *world.Scene, pose Pose, im *Image) {
	f := fanPool.Get().(*world.RayFan)
	f.BuildScene(sc, pose.Pos)
	renderInto(c, f, pose.Ori, im)
	fanPool.Put(f)
}

// RenderCaster draws arbitrary geometry satisfying Caster — reference
// implementations in tests cast through the identical shading pipeline.
func (c Camera) RenderCaster(w Caster, pose Pose, im *Image) {
	renderInto(c, posed{w, pose.Pos}, pose.Ori, im)
}

// fanPool holds the per-frame ray fans, so concurrent renders (sweep
// missions) each get their own and steady-state frames do not allocate.
var fanPool = sync.Pool{New: func() any { return new(world.RayFan) }}

// frameCaster casts one frame's rays, which all start at the camera:
// *world.RayFan, or a Caster posed at the camera.
type frameCaster interface {
	Raycast(dir vec.Vec3, maxDist float64) (world.Hit, bool)
}

type posed struct {
	w      Caster
	origin vec.Vec3
}

func (p posed) Raycast(dir vec.Vec3, maxDist float64) (world.Hit, bool) {
	return p.w.Raycast(p.origin, dir, maxDist)
}

func renderInto[C frameCaster](c Camera, m C, ori vec.Quat, im *Image) {
	if im.W != c.W || im.H != c.H {
		panic("render: image dimensions do not match camera")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 1 && c.W*c.H >= renderParallelPixels {
		renderBands(c, m, ori, im, workers)
		return
	}
	renderRows(c, m, ori, im, 0, c.H)
}

// renderBands fans row bands out across the given number of workers. Bands
// write disjoint rows, so no synchronization beyond the final join is needed.
func renderBands[C frameCaster](c Camera, m C, ori vec.Quat, im *Image, workers int) {
	if workers > c.H {
		workers = c.H
	}
	var wg sync.WaitGroup
	base, rem := c.H/workers, c.H%workers
	y0 := 0
	for w := 0; w < workers; w++ {
		rows := base
		if w < rem {
			rows++
		}
		y1 := y0 + rows
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			renderRows(c, m, ori, im, lo, hi)
		}(y0, y1)
		y0 = y1
	}
	wg.Wait()
}

// renderRows ray-casts pixel rows [y0, y1) from a camera with orientation ori.
func renderRows[C frameCaster](c Camera, m C, ori vec.Quat, im *Image, y0, y1 int) {
	halfW := math.Tan(vec.Deg(c.FOVDeg) / 2)
	halfH := halfW * float64(c.H) / float64(c.W)
	for y := y0; y < y1; y++ {
		// v from +halfH (top) to −halfH (bottom).
		v := halfH * (1 - 2*(float64(y)+0.5)/float64(c.H))
		for x := 0; x < c.W; x++ {
			u := halfW * (2*(float64(x)+0.5)/float64(c.W) - 1)
			// Body frame: forward +X, left +Y, up +Z. Screen-right is −Y.
			dirBody := vec.V3(1, -u, v).Unit()
			dir := ori.Rotate(dirBody)
			im.Set(x, y, shade(c, m, dir))
		}
	}
}

func shade[C frameCaster](c Camera, m C, dir vec.Vec3) float32 {
	h, ok := m.Raycast(dir, c.MaxDist)
	if !ok {
		return skyColor(dir)
	}
	base := Texture(h.Texture, h.U, h.V)
	diffuse := math.Max(0, h.Normal.Dot(lightDir.Neg()))
	lit := base * (ambient + (1-ambient)*diffuse)
	// Distance fog toward the sky color.
	fog := 1 - math.Exp(-h.Dist/fogDistance)
	out := lit*(1-fog) + float64(skyColor(dir))*fog
	return float32(vec.Clamp(out, 0, 1))
}

func skyColor(dir vec.Vec3) float32 {
	t := vec.Clamp(dir.Z*0.5+0.5, 0, 1)
	return float32(vec.Lerp(skyBottom, skyTop, t))
}

// Texture evaluates the procedural material tex at surface coordinates (u, v)
// and returns an albedo in [0,1]. Distinct wall materials give the classifier
// a left/right cue, mirroring the paper's textured trail environment.
func Texture(tex int, u, v float64) float64 {
	switch tex {
	case world.TexLeftWall:
		// Bright wall with dark vertical stripes every 1.5 m plus noise.
		s := 0.85
		if math.Mod(math.Abs(u), 1.5) < 0.35 {
			s = 0.45
		}
		return s + 0.12*(hashNoise(u*3, v*3)-0.5)
	case world.TexRightWall:
		// Darker wall with horizontal bands every 1.0 m of height.
		s := 0.55
		if math.Mod(math.Abs(v), 1.0) < 0.3 {
			s = 0.30
		}
		return s + 0.12*(hashNoise(u*3+17, v*3)-0.5)
	case world.TexEndWall:
		// Checker end wall.
		if checker(u, v, 0.8) {
			return 0.7
		}
		return 0.25
	case world.TexGate:
		// High-contrast diagonal hazard stripes: interior gates and room
		// dividers must pop against both corridor walls.
		if math.Mod(math.Abs(u+v), 1.0) < 0.5 {
			return 0.9
		}
		return 0.15
	case world.TexObstacle:
		// Moving obstacles: dark with a bright warning band at mid-height.
		if v > 1.0 && v < 1.8 {
			return 0.85
		}
		return 0.2 + 0.1*(hashNoise(u*4, v*4)-0.5)
	case world.TexDrone:
		// Peer drones: mid-gray shell with fine panel lines.
		s := 0.5
		if math.Mod(math.Abs(u), 0.25) < 0.04 || math.Mod(math.Abs(v), 0.25) < 0.04 {
			s = 0.3
		}
		return s + 0.08*(hashNoise(u*6+5, v*6)-0.5)
	case world.FloorTexture:
		if checker(u, v, 2.0) {
			return 0.60
		}
		return 0.40
	default:
		return texVariant(tex, u, v)
	}
}

// texVariant provides additional deterministic materials for randomized
// dataset textures (texture IDs >= 1000 select procedural variants). On the
// tunnel, the map every model trains on, dnn.GenerateWith's corridor
// rebuild discards those IDs, so only tests render them today.
func texVariant(tex int, u, v float64) float64 {
	k := float64(tex%7) + 1
	s := 0.5 + 0.3*math.Sin(u*k+v*0.7*k)
	return vec.Clamp(s+0.15*(hashNoise(u*2+k, v*2)-0.5), 0, 1)
}

func checker(u, v, size float64) bool {
	iu := int(math.Floor(u / size))
	iv := int(math.Floor(v / size))
	return (iu+iv)%2 == 0
}

// hashNoise is a cheap deterministic value-noise in [0,1): bilinear
// interpolation of a lattice of hashed values.
func hashNoise(x, y float64) float64 {
	x0, y0 := math.Floor(x), math.Floor(y)
	fx, fy := x-x0, y-y0
	// Smoothstep the fractions.
	fx = fx * fx * (3 - 2*fx)
	fy = fy * fy * (3 - 2*fy)
	v00 := hash2(int64(x0), int64(y0))
	v10 := hash2(int64(x0)+1, int64(y0))
	v01 := hash2(int64(x0), int64(y0)+1)
	v11 := hash2(int64(x0)+1, int64(y0)+1)
	a := v00 + (v10-v00)*fx
	b := v01 + (v11-v01)*fx
	return a + (b-a)*fy
}

func hash2(x, y int64) float64 {
	h := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return float64(h&0xFFFFFF) / float64(0x1000000)
}
