package world

import (
	"math"

	"repro/internal/vec"
)

// fanBuckets is the number of azimuth buckets a RayFan bins walls into; a
// power of two, so bucket arithmetic wraps with a mask.
const fanBuckets = 256

// RayFan casts many rays from one origin against a Map's walls: a camera
// frame's rays. Build bins each wall into the azimuth buckets it subtends
// as seen from the origin, plus one bucket of margin on each side; a ray
// then tests only its own bucket's walls, in ascending wall index, with
// Map.Raycast's castWall and its strict t < best.Dist rule. Every Hit and
// found flag is therefore bit-identical to Map.Raycast's, provided no wall
// outside the ray's bucket can report a hit.
//
// It cannot: castWall accepts a hit only at a point within rounding of the
// segment, and that point lies on the ray, so the ray's azimuth is within
// rounding of the wall's azimuth range. If the wall's line passes at least
// 1e-6·R from the origin (R: the distance to its farther endpoint), the hit
// point is at least that far away and the rounding moves its azimuth by
// ~1e-10 rad, where a bucket is at least 1/64 rad wide (the bucket key is a
// pseudo-angle whose slope is between 1/2 and 1 per radian). A wall whose
// line passes closer (the origin on the wall's line or on an endpoint), and
// any wall when the origin is not finite, goes in every bucket; a ray with
// no finite, non-zero horizontal direction tests every wall.
//
// A RayFan holds its bins between builds, so rebuilding it for each frame
// does not allocate once it has grown to the largest map it has seen.
type RayFan struct {
	m      *Map
	scene  *Scene // cast after the walls when built by BuildScene
	origin vec.Vec3
	start  [fanBuckets + 1]int32 // bucket b's walls are idx[start[b]:start[b+1]]
	idx    []int32
	span   []int32 // Build scratch: each wall's first bucket and bucket count
}

// Build bins m's walls for rays cast from origin. The fan reads m.Walls
// until the next Build; the walls must not change in between.
func (f *RayFan) Build(m *Map, origin vec.Vec3) {
	f.m, f.scene, f.origin = m, nil, origin
	f.start = [fanBuckets + 1]int32{}
	f.span = f.span[:0]
	for i := range m.Walls {
		first, n := fanSpan(origin, &m.Walls[i])
		f.span = append(f.span, int32(first), int32(n))
		for k := first; k < first+n; k++ {
			f.start[k&(fanBuckets-1)+1]++
		}
	}
	for b := 0; b < fanBuckets; b++ {
		f.start[b+1] += f.start[b]
	}
	total := int(f.start[fanBuckets])
	if cap(f.idx) < total {
		f.idx = make([]int32, total)
	}
	f.idx = f.idx[:total]
	next := f.start // fill cursors; walls go in in ascending index
	for i := range m.Walls {
		first, n := int(f.span[2*i]), int(f.span[2*i+1])
		for k := first; k < first+n; k++ {
			b := k & (fanBuckets - 1)
			f.idx[next[b]] = int32(i)
			next[b]++
		}
	}
}

// BuildScene bins sc.Map's walls for rays cast from origin, as Build does;
// Raycast then tests sc's dynamic walls and bodies after them, in
// Scene.Raycast's order.
func (f *RayFan) BuildScene(sc *Scene, origin vec.Vec3) {
	f.Build(sc.Map, origin)
	f.scene = sc
}

// Raycast returns exactly what Map.Raycast(origin, dir, maxDist) returns
// for the Map and origin of the last Build, or what Scene.Raycast returns
// for the Scene of the last BuildScene.
func (f *RayFan) Raycast(dir vec.Vec3, maxDist float64) (best Hit, found bool) {
	o := f.origin
	d := dir.Unit()
	if b, ok := fanKey(d.X, d.Y); ok {
		found = castFloor(&best, o, d, maxDist)
		walls := f.m.Walls
		for _, i := range f.idx[f.start[b]:f.start[b+1]] {
			if castWall(&best, o, d, &walls[i]) {
				found = true
			}
		}
	} else { // no horizontal direction to bin by
		best, found = f.m.Raycast(o, dir, maxDist)
	}
	if f.scene != nil {
		return f.scene.castDynamic(o, dir, best, found)
	}
	return best, found
}

// fanSpan returns the buckets a wall occupies as seen from o: n buckets
// counter-clockwise from first (n = fanBuckets for all of them).
func fanSpan(o vec.Vec3, w *Wall) (first, n int) {
	ax, ay := w.A.X-o.X, w.A.Y-o.Y
	bx, by := w.B.X-o.X, w.B.Y-o.Y
	ex, ey := w.B.X-w.A.X, w.B.Y-w.A.Y
	// castWall's numerator: positive when the short arc runs
	// counter-clockwise from A to B, zero when o is on the wall's line.
	c := ex*(o.Y-w.A.Y) - ey*(o.X-w.A.X)
	r := math.Max(math.Hypot(ax, ay), math.Hypot(bx, by))
	ka, okA := fanKey(ax, ay)
	kb, okB := fanKey(bx, by)
	if !(math.Abs(c) >= 1e-6*math.Hypot(ex, ey)*r) || !okA || !okB {
		return 0, fanBuckets // near the line, or not finite
	}
	if c < 0 {
		ka, kb = kb, ka
	}
	n = (kb-ka)&(fanBuckets-1) + 3 // the arc plus a bucket each side
	if n >= fanBuckets {
		return 0, fanBuckets
	}
	return (ka - 1) & (fanBuckets - 1), n
}

// fanKey returns the azimuth bucket of the horizontal direction (x, y), from
// the pseudo-angle x/(|x|+|y|): it runs from 0 to 4 counter-clockwise from
// +X, monotone in the true angle, with no atan2. ok is false when (x, y) is
// zero or not finite.
func fanKey(x, y float64) (int, bool) {
	s := math.Abs(x) + math.Abs(y)
	if !(s > 0 && s <= math.MaxFloat64) {
		return 0, false
	}
	a := 1 - x/s
	if y < 0 {
		a = 3 + x/s
	}
	return int(a*(fanBuckets/4)) & (fanBuckets - 1), true
}
