// Package world models the static 3-D geometry of the evaluation
// environments: vertical wall segments, ray casting for rendering and depth
// sensing, and collision queries for the UAV physics.
//
// It is the Go stand-in for the Unreal Engine maps the paper builds with
// AirSim (tunnel, s-shape): geometry only, with procedural texture IDs that
// internal/render turns into pixels.
package world

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Wall is a vertical rectangular obstacle: the segment A→B in the XY plane
// extruded from ZMin to ZMax. Texture selects the procedural surface pattern
// used by the renderer; walls with distinct textures let the DNN distinguish
// left/right surfaces the way Unreal materials do.
type Wall struct {
	A, B       vec.Vec3 // Z components ignored; XY endpoints
	ZMin, ZMax float64
	Texture    int
}

// Normal2D returns the wall's unit normal in the XY plane (right-hand side of
// A→B).
func (w Wall) Normal2D() vec.Vec3 {
	d := w.B.Sub(w.A).XY().Unit()
	return vec.V3(d.Y, -d.X, 0)
}

// Hit describes a ray-cast intersection.
type Hit struct {
	Dist    float64  // distance along the ray
	Point   vec.Vec3 // world-space intersection point
	Normal  vec.Vec3 // surface normal at the hit (unit)
	Texture int      // texture ID of the surface
	U, V    float64  // surface parameterization for texturing
	Floor   bool     // true if the hit is the ground plane
}

// Map is a static environment: walls plus mission metadata.
type Map struct {
	Name   string
	Walls  []Wall
	Start  vec.Vec3 // default spawn position
	GoalX  float64  // mission completes when the UAV's X reaches GoalX
	Bounds Bounds   // loose world bounds (failsafe)

	// Centerline returns the corridor's center Y and heading (radians)
	// at a given X; used for ground-truth labels when generating
	// training data and for trajectory-quality metrics.
	Centerline func(x float64) (y, heading float64)

	// HalfWidth is the corridor half-width at the centerline, used by the
	// dataset generator to sample poses and derive lateral labels.
	HalfWidth float64
}

// Bounds is an axis-aligned box.
type Bounds struct {
	Min, Max vec.Vec3
}

// Contains reports whether p lies within the bounds.
func (b Bounds) Contains(p vec.Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// FloorTexture is the texture ID used for the ground plane.
const FloorTexture = 100

// Raycast shoots a ray from origin along dir (unit not required) and returns
// the nearest intersection with walls or the ground plane (z = 0), up to
// maxDist. found is false if nothing is hit within maxDist. It tests every
// wall; a RayFan casts a frame's rays from one origin with the same result.
func (m *Map) Raycast(origin, dir vec.Vec3, maxDist float64) (best Hit, found bool) {
	d := dir.Unit()
	found = castFloor(&best, origin, d, maxDist)
	for i := range m.Walls {
		if castWall(&best, origin, d, &m.Walls[i]) {
			found = true
		}
	}
	return best, found
}

// castFloor sets *h to a ray's hit (origin o, unit direction d) on the
// ground plane z = 0 (only when looking downward) and returns true, or, when
// it misses within maxDist, to Hit{Dist: maxDist} and returns false.
func castFloor(h *Hit, o, d vec.Vec3, maxDist float64) bool {
	if d.Z < -1e-12 {
		t := -o.Z / d.Z
		if t > 1e-9 && t < maxDist {
			p := o.Add(d.Scale(t))
			h.set(t, p, vec.V3(0, 0, 1), FloorTexture, p.X, p.Y, true)
			return true
		}
	}
	h.set(maxDist, vec.Vec3{}, vec.Vec3{}, 0, 0, 0, false)
	return false
}

// castWall intersects a ray (origin o, unit direction d) with w. If it hits
// nearer than h.Dist, castWall records the hit in *h and returns true.
func castWall(h *Hit, o, d vec.Vec3, w *Wall) bool {
	// 2-D segment intersection in the XY plane.
	ax, ay := w.A.X, w.A.Y
	ex, ey := w.B.X-ax, w.B.Y-ay // wall edge vector
	// Solve o.XY + t*d.XY = A + s*E  for t, s ∈ [0,1].
	den := d.X*ey - d.Y*ex
	if math.Abs(den) < 1e-15 {
		return false // parallel
	}
	ox, oy := o.X-ax, o.Y-ay
	t := (ex*oy - ey*ox) / den
	if t <= 1e-9 || !(t < h.Dist) {
		return false
	}
	var s float64
	if math.Abs(ex) >= math.Abs(ey) {
		s = (ox + t*d.X) / ex
	} else {
		s = (oy + t*d.Y) / ey
	}
	if s < 0 || s > 1 {
		return false
	}
	if z := o.Z + t*d.Z; z < w.ZMin || z > w.ZMax {
		return false
	}
	p := o.Add(d.Scale(t))
	n := w.Normal2D()
	if n.Dot(d) > 0 { // face the ray
		n = n.Neg()
	}
	h.set(t, p, n, w.Texture, s*math.Hypot(ex, ey), p.Z, false)
	return true
}

// set assigns every field of *h; the hit paths write through it so a Hit is
// built in place, not copied.
func (h *Hit) set(dist float64, p, n vec.Vec3, tex int, u, v float64, floor bool) {
	h.Dist, h.Point, h.Normal, h.Texture, h.U, h.V, h.Floor = dist, p, n, tex, u, v, floor
}

// CollisionInfo describes a collision between the UAV and the environment.
type CollisionInfo struct {
	Collided bool
	Normal   vec.Vec3 // push-out direction (unit)
	Depth    float64  // penetration depth (m)
	Wall     int      // index of the wall hit, -1 for floor / bounds
	Body     int      // index of the dynamic body hit (Scene only), -1 otherwise
}

// Collide tests a sphere of the given radius centred at p against the map.
// It returns the deepest penetration, favouring walls over the floor so the
// flight controller's altitude hold does not mask lateral crashes.
func (m *Map) Collide(p vec.Vec3, radius float64) CollisionInfo {
	out := CollisionInfo{Wall: -1, Body: -1}
	for i := range m.Walls {
		w := &m.Walls[i]
		if p.Z+radius < w.ZMin || p.Z-radius > w.ZMax {
			continue
		}
		// Closest point on segment A→B to p, in 2-D.
		cx, cy := closestOnSegment2D(w.A.X, w.A.Y, w.B.X, w.B.Y, p.X, p.Y)
		dx, dy := p.X-cx, p.Y-cy
		dist := math.Hypot(dx, dy)
		if dist < radius {
			depth := radius - dist
			if depth > out.Depth {
				n := vec.V3(dx, dy, 0)
				if dist < 1e-12 {
					n = w.Normal2D()
				} else {
					n = n.Scale(1 / dist)
				}
				out = CollisionInfo{Collided: true, Normal: n, Depth: depth, Wall: i, Body: -1}
			}
		}
	}
	if !out.Collided && p.Z-radius < 0 {
		out = CollisionInfo{Collided: true, Normal: vec.V3(0, 0, 1), Depth: radius - p.Z, Wall: -1, Body: -1}
	}
	return out
}

func closestOnSegment2D(ax, ay, bx, by, px, py float64) (float64, float64) {
	ex, ey := bx-ax, by-ay
	l2 := ex*ex + ey*ey
	if l2 == 0 {
		return ax, ay
	}
	t := ((px-ax)*ex + (py-ay)*ey) / l2
	t = vec.Clamp(t, 0, 1)
	return ax + t*ex, ay + t*ey
}

// DepthAhead returns the distance to the nearest obstacle along the horizontal
// heading direction from position p — the forward-facing depth-sensor reading
// the paper's dynamic runtime uses to derive deadlines (Equation 3).
func (m *Map) DepthAhead(p vec.Vec3, yaw float64, maxDist float64) float64 {
	dir := vec.V3(math.Cos(yaw), math.Sin(yaw), 0)
	if h, ok := m.Raycast(p, dir, maxDist); ok {
		return h.Dist
	}
	return maxDist
}

// LateralOffset returns the UAV's signed offset from the corridor centerline
// and the heading error relative to the corridor direction, at position p
// with the given yaw.
func (m *Map) LateralOffset(p vec.Vec3, yaw float64) (offset, headingErr float64) {
	cy, ch := m.Centerline(p.X)
	return p.Y - cy, vec.WrapAngle(yaw - ch)
}

func (m *Map) String() string {
	return fmt.Sprintf("map %q: %d walls, goal x=%.1f", m.Name, len(m.Walls), m.GoalX)
}
