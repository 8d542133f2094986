package world

import (
	"math"

	"repro/internal/vec"
)

// Body is a dynamic sphere in the world — a peer vehicle in a multi-drone
// mission. Bodies are sensed (raycast, depth) and collided with exactly like
// walls, but live outside Map so the static geometry stays shareable across
// missions (the COW warm-start path hands one *Map to N drones).
type Body struct {
	Pos     vec.Vec3
	Radius  float64
	Texture int // renderer surface ID (TexDrone for peers)
}

// Scene overlays dynamic content on a static Map: extra wall segments
// (moving obstacles, re-posed every frame from sim time) and spherical
// bodies (peer drones). A Scene with no dynamic content behaves exactly like
// its Map; the env hot path only builds one when a scenario asks for it.
//
// Wall indices reported by Collide/raycasts keep the Map's numbering;
// dynamic walls continue after them (index len(Map.Walls)+i), so collision
// debouncing and wall-identity checks work across both.
type Scene struct {
	Map    *Map
	Walls  []Wall // dynamic obstacle walls, rewritten per frame
	Bodies []Body // peer drones, rewritten per quantum
}

// Raycast mirrors Map.Raycast over static walls, dynamic walls, and bodies.
func (sc *Scene) Raycast(origin, dir vec.Vec3, maxDist float64) (Hit, bool) {
	// Hand the Map the raw direction (it normalizes internally): an empty
	// Scene must be bit-identical to the bare Map, and re-normalizing an
	// already-unit vector perturbs the last ulp.
	best, found := sc.Map.Raycast(origin, dir, maxDist)
	return sc.castDynamic(origin, dir, best, found)
}

// castDynamic continues a static-wall cast (best, found) over the dynamic
// walls, then the bodies, each with the strict t < best.Dist rule.
func (sc *Scene) castDynamic(origin, dir vec.Vec3, best Hit, found bool) (Hit, bool) {
	d := dir.Unit()
	for i := range sc.Walls {
		if castWall(&best, origin, d, &sc.Walls[i]) {
			found = true
		}
	}
	for i := range sc.Bodies {
		if t, ok := raySphere(origin, d, &sc.Bodies[i]); ok && t < best.Dist {
			p := origin.Add(d.Scale(t))
			n := p.Sub(sc.Bodies[i].Pos)
			if nn := n.Norm(); nn > 1e-12 {
				n = n.Scale(1 / nn)
			} else {
				n = d.Neg()
			}
			// Spherical parameterization for texturing.
			best = Hit{
				Dist: t, Point: p, Normal: n, Texture: sc.Bodies[i].Texture,
				U: math.Atan2(n.Y, n.X) * sc.Bodies[i].Radius,
				V: p.Z,
			}
			found = true
		}
	}
	return best, found
}

// raySphere intersects a ray (origin o, unit direction d) with a body,
// returning the nearest positive ray parameter.
func raySphere(o, d vec.Vec3, b *Body) (t float64, ok bool) {
	oc := o.Sub(b.Pos)
	// |oc + t d|² = r²  with |d| = 1.
	half := oc.Dot(d)
	c := oc.NormSq() - b.Radius*b.Radius
	disc := half*half - c
	if disc < 0 {
		return 0, false
	}
	s := math.Sqrt(disc)
	t = -half - s
	if t <= 1e-9 {
		t = -half + s // inside the sphere: exit point
		if t <= 1e-9 {
			return 0, false
		}
	}
	return t, true
}

// Collide tests a sphere against the static map, dynamic walls, and bodies,
// returning the deepest penetration. Dynamic-wall indices continue the
// Map's; a body hit sets Body (and Wall = -1).
func (sc *Scene) Collide(p vec.Vec3, radius float64) CollisionInfo {
	out := sc.Map.Collide(p, radius)
	floorOnly := out.Collided && out.Wall < 0 && out.Body < 0
	base := len(sc.Map.Walls)
	for i := range sc.Walls {
		w := &sc.Walls[i]
		if p.Z+radius < w.ZMin || p.Z-radius > w.ZMax {
			continue
		}
		cx, cy := closestOnSegment2D(w.A.X, w.A.Y, w.B.X, w.B.Y, p.X, p.Y)
		dx, dy := p.X-cx, p.Y-cy
		dist := math.Hypot(dx, dy)
		if dist < radius {
			depth := radius - dist
			if depth > out.Depth || floorOnly {
				n := vec.V3(dx, dy, 0)
				if dist < 1e-12 {
					n = w.Normal2D()
				} else {
					n = n.Scale(1 / dist)
				}
				out = CollisionInfo{Collided: true, Normal: n, Depth: depth, Wall: base + i, Body: -1}
				floorOnly = false
			}
		}
	}
	for i := range sc.Bodies {
		b := &sc.Bodies[i]
		delta := p.Sub(b.Pos)
		dist := delta.Norm()
		if dist < radius+b.Radius {
			depth := radius + b.Radius - dist
			if depth > out.Depth || floorOnly {
				n := delta
				if dist < 1e-12 {
					n = vec.V3(0, 0, 1)
				} else {
					n = n.Scale(1 / dist)
				}
				out = CollisionInfo{Collided: true, Normal: n, Depth: depth, Wall: -1, Body: i}
				floorOnly = false
			}
		}
	}
	return out
}

// DepthAhead mirrors Map.DepthAhead over the full scene.
func (sc *Scene) DepthAhead(p vec.Vec3, yaw float64, maxDist float64) float64 {
	dir := vec.V3(math.Cos(yaw), math.Sin(yaw), 0)
	if h, ok := sc.Raycast(p, dir, maxDist); ok {
		return h.Dist
	}
	return maxDist
}
