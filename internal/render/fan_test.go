package render

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/vec"
	"repro/internal/world"
)

// rayHit is one recorded raycast result.
type rayHit struct {
	h  world.Hit
	ok bool
}

// recorder casts through c and appends every result to *hits, in ray order.
type recorder[C frameCaster] struct {
	c    C
	hits *[]rayHit
}

func (r recorder[C]) Raycast(dir vec.Vec3, maxDist float64) (world.Hit, bool) {
	h, ok := r.c.Raycast(dir, maxDist)
	*r.hits = append(*r.hits, rayHit{h, ok})
	return h, ok
}

// sameRayHit compares found and every Hit field, floats by math.Float64bits.
func sameRayHit(a, b rayHit) bool {
	fb := math.Float64bits
	v := func(p, q vec.Vec3) bool { return fb(p.X) == fb(q.X) && fb(p.Y) == fb(q.Y) && fb(p.Z) == fb(q.Z) }
	return a.ok == b.ok && a.h.Texture == b.h.Texture && a.h.Floor == b.h.Floor &&
		fb(a.h.Dist) == fb(b.h.Dist) && fb(a.h.U) == fb(b.h.U) && fb(a.h.V) == fb(b.h.V) &&
		v(a.h.Point, b.h.Point) && v(a.h.Normal, b.h.Normal)
}

// fanPoses returns camera poses in m: level inside the corridor, outside
// it, above the walls, rolled and pitched to ±80°, looking straight down and
// up, on a wall's line, on a wall endpoint, and at a non-finite position.
func fanPoses(m *world.Map) []Pose {
	x := m.GoalX / 3
	cy, ch := m.Centerline(x)
	in := vec.V3(x, cy+0.3*m.HalfWidth, 1.4)
	w := m.Walls[len(m.Walls)/2]
	online := w.A.Add(w.B.Sub(w.A).Scale(0.4))
	online.Z = 1.5
	endpoint := vec.V3(w.B.X, w.B.Y, 2)
	e := vec.QuatFromEuler
	rad := vec.Deg
	return []Pose{
		{in, e(0, 0, ch)},
		{in, e(0, 0, ch+2.5)},
		{vec.V3(x, cy+m.HalfWidth+3, 2), e(0, 0, ch-1.2)},
		{vec.V3(x, cy, 10), e(0, rad(30), ch+0.4)},
		{in, e(rad(80), 0, ch)},
		{in, e(rad(-80), rad(10), ch+0.3)},
		{in, e(0, rad(80), ch)},
		{in, e(rad(20), rad(-80), ch-0.5)},
		{in, e(0, rad(90), 0)},
		{in, e(0, rad(-90), ch)},
		{online, e(0, 0, math.Atan2(w.B.Y-w.A.Y, w.B.X-w.A.X))},
		{online, e(0, rad(-20), ch+1)},
		{endpoint, e(0, 0, ch)},
		{vec.V3(math.NaN(), cy, 1.5), e(0, 0, ch)},
		{vec.V3(x, math.Inf(1), 1.5), e(0, 0, ch)},
	}
}

// fanGeometries returns the maps and scenes the render-level fan tests
// draw: the paper maps, ten seeds of each procedural family, and scenes
// with moving walls and peer bodies.
func fanGeometries() map[string]*world.Scene {
	out := map[string]*world.Scene{
		"tunnel":  {Map: world.Tunnel()},
		"s-shape": {Map: world.SShape()},
	}
	for _, fam := range []string{"corridor", "rooms", "slalom"} {
		for seed := 1; seed <= 10; seed++ {
			name := fam + ":" + strconv.Itoa(seed)
			out[name] = &world.Scene{Map: world.ByName(name)}
		}
	}
	out["tunnel+dynamic"] = &world.Scene{Map: world.Tunnel(),
		Walls: []world.Wall{
			{A: vec.V3(12, -1.6, 0), B: vec.V3(12.5, 0.4, 0), ZMax: 2.5, Texture: world.TexObstacle},
			{A: vec.V3(30, -1, 0), B: vec.V3(31, 1, 0), ZMin: 0.5, ZMax: 3, Texture: world.TexObstacle},
		},
		Bodies: []world.Body{
			{Pos: vec.V3(19, 0.3, 1.5), Radius: 0.3, Texture: world.TexDrone},
			{Pos: vec.V3(25, -0.8, 1.2), Radius: 0.4, Texture: world.TexDrone},
		}}
	out["s-shape+peers"] = &world.Scene{Map: world.SShape(), Bodies: []world.Body{
		{Pos: vec.V3(30, 1, 1.5), Radius: 0.3, Texture: world.TexDrone},
	}}
	return out
}

// caster returns sc's Map when sc has no dynamic content, so bare maps are
// checked against Map.Raycast and scenes against Scene.Raycast.
func caster(sc *world.Scene) (Caster, bool) {
	if len(sc.Walls)+len(sc.Bodies) == 0 {
		return sc.Map, false
	}
	return sc, true
}

// TestRenderFanBitIdentical renders every pose of fanPoses on every
// geometry twice — through a fan built once for the frame, and with every
// ray cast by Map.Raycast (Scene.Raycast for scenes) — and requires each
// ray's Hit and found flag, and each pixel, to be bit-identical; then checks
// the public entry points (RenderInto, RenderSceneInto) against
// RenderCaster pixel for pixel.
func TestRenderFanBitIdentical(t *testing.T) {
	cam := DefaultCamera(32, 24)
	f := new(world.RayFan)
	for name, sc := range fanGeometries() {
		direct, dynamic := caster(sc)
		for pi, pose := range fanPoses(sc.Map) {
			if dynamic {
				f.BuildScene(sc, pose.Pos)
			} else {
				f.Build(sc.Map, pose.Pos)
			}
			var got, want []rayHit
			gotIm, wantIm := NewImage(cam.W, cam.H), NewImage(cam.W, cam.H)
			renderRows(cam, recorder[*world.RayFan]{f, &got}, pose.Ori, gotIm, 0, cam.H)
			renderRows(cam, recorder[posed]{posed{direct, pose.Pos}, &want}, pose.Ori, wantIm, 0, cam.H)
			if len(got) != len(want) {
				t.Fatalf("%s pose %d: %d rays through the fan, %d direct", name, pi, len(got), len(want))
			}
			for i := range want {
				if !sameRayHit(got[i], want[i]) {
					t.Fatalf("%s pose %d ray %d: fan %+v, direct %+v", name, pi, i, got[i], want[i])
				}
			}
			samePixels(t, name+" pose "+strconv.Itoa(pi)+" rows", gotIm, wantIm)

			pub := NewImage(cam.W, cam.H)
			if dynamic {
				cam.RenderSceneInto(sc, pose, pub)
			} else {
				cam.RenderInto(sc.Map, pose, pub)
			}
			cam.RenderCaster(direct, pose, wantIm)
			samePixels(t, name+" pose "+strconv.Itoa(pi)+" public", pub, wantIm)
		}
	}
}

func samePixels(t *testing.T, what string, got, want *Image) {
	t.Helper()
	for i := range want.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
			t.Fatalf("%s: pixel %d = %v, want %v", what, i, got.Pix[i], want.Pix[i])
		}
	}
}
