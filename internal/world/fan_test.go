package world

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/vec"
)

// sameHit reports whether two raycast results agree bit for bit: found, and
// every Hit field, floats compared by math.Float64bits.
func sameHit(a Hit, aok bool, b Hit, bok bool) bool {
	fb := math.Float64bits
	v := func(p, q vec.Vec3) bool { return fb(p.X) == fb(q.X) && fb(p.Y) == fb(q.Y) && fb(p.Z) == fb(q.Z) }
	return aok == bok && a.Texture == b.Texture && a.Floor == b.Floor &&
		fb(a.Dist) == fb(b.Dist) && fb(a.U) == fb(b.U) && fb(a.V) == fb(b.V) &&
		v(a.Point, b.Point) && v(a.Normal, b.Normal)
}

// fanOrigins returns the origins TestRayFanBitIdentical casts from in m:
// along the centerline inside the corridor, near and beyond its walls,
// above the walls and skimming the floor, far outside the map, on a wall's
// line (inside the segment, past an endpoint, and within 1e-9 of it), on a
// wall endpoint and a few ulps off it, and not finite.
func fanOrigins(m *Map, rng *rand.Rand) []vec.Vec3 {
	var out []vec.Vec3
	for k := 0; k <= 4; k++ {
		x := m.GoalX * float64(k) / 4
		cy, _ := m.Centerline(x)
		hw := m.HalfWidth
		for _, off := range []float64{0, 0.9 * hw, -0.9 * hw, hw + 2, -hw - 2} {
			out = append(out, vec.V3(x, cy+off, 0.3+rng.Float64()*3))
		}
		out = append(out, vec.V3(x, cy, 9), vec.V3(x, cy, 0.05))
	}
	out = append(out, vec.V3(-50, 40, 3), vec.V3(m.GoalX+30, -25, 20))
	for i := 0; i < len(m.Walls); i += 1 + len(m.Walls)/6 {
		w := m.Walls[i]
		e := w.B.Sub(w.A)
		z := (w.ZMin + w.ZMax) / 2
		on := func(s float64) vec.Vec3 { p := w.A.Add(e.Scale(s)); p.Z = z; return p }
		n := w.Normal2D().Scale(1e-9)
		out = append(out, on(0.37), on(-0.5), on(1.25), on(0.37).Add(n), on(1.25).Sub(n),
			vec.V3(w.A.X, w.A.Y, z), vec.V3(w.B.X, w.B.Y, z+0.5))
		for _, ij := range [][2]int{{5, 0}, {-4, 0}, {5, -1}, {-5, 2}} {
			out = append(out, ulps(on(1), ij[0], ij[1]))
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	return append(out, vec.V3(nan, 0, 1.5), vec.V3(10, nan, 1.5), vec.V3(10, 0, nan),
		vec.V3(inf, 0, 1.5), vec.V3(10, -inf, 1.5), vec.V3(inf, inf, inf))
}

// fanDirs returns the directions cast from o: random over the sphere, a
// sweep of the horizon, the axes (straight up and down included), grazing
// along some walls, aimed exactly at every wall endpoint and one ulp
// either side of it, and zero or not finite.
func fanDirs(m *Map, o vec.Vec3, rng *rand.Rand) []vec.Vec3 {
	var out []vec.Vec3
	for i := 0; i < 32; i++ {
		out = append(out, vec.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()))
	}
	for i := 0; i < 96; i++ {
		a := float64(i) * math.Pi / 48
		out = append(out, vec.V3(math.Cos(a), math.Sin(a), 0.05*rng.NormFloat64()))
	}
	out = append(out, vec.V3(1, 0, 0), vec.V3(-1, 0, 0), vec.V3(0, 1, 0), vec.V3(0, -1, 0),
		vec.V3(0, 0, -1), vec.V3(0, 0, 1), vec.V3(1, 1, 0), vec.V3(-1, 1, -0.2))
	for i := 0; i < len(m.Walls); i += 1 + len(m.Walls)/6 {
		e := m.Walls[i].B.Sub(m.Walls[i].A).XY().Unit()
		for _, a := range []float64{-0.1, -0.03, 0.03, 0.1} {
			c, s := math.Cos(a), math.Sin(a)
			g := vec.V3(e.X*c-e.Y*s, e.X*s+e.Y*c, 0.01*rng.NormFloat64())
			out = append(out, g, g.Neg())
		}
	}
	for _, w := range m.Walls {
		for _, p := range []vec.Vec3{w.A, w.B} {
			d := vec.V3(p.X-o.X, p.Y-o.Y, w.ZMin+rng.Float64()*(w.ZMax-w.ZMin)-o.Z)
			up, down := d, d
			up.X, down.Y = math.Nextafter(d.X, math.Inf(1)), math.Nextafter(d.Y, math.Inf(-1))
			out = append(out, d, up, down)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	return append(out, vec.Zero3, vec.V3(nan, 1, 0), vec.V3(1, nan, 0), vec.V3(1, 0, nan),
		vec.V3(inf, 0, 0), vec.V3(-inf, inf, 0), vec.V3(0, 0, inf))
}

// fanScenes returns every geometry TestRayFanBitIdentical checks: the paper
// maps, ten seeds of each procedural family, kilometre-long walls, and
// Scenes with moving walls (one coinciding with a static wall) and peers.
func fanScenes() map[string]*Scene {
	out := map[string]*Scene{"tunnel": {Map: Tunnel()}, "s-shape": {Map: SShape()}}
	for _, fam := range []string{"corridor", "rooms", "slalom"} {
		for seed := 1; seed <= 10; seed++ {
			name := fam + ":" + strconv.Itoa(seed)
			out[name] = &Scene{Map: ByName(name)}
		}
	}
	out["long-walls"] = &Scene{Map: longWalls()}
	tun := Tunnel()
	out["tunnel+dynamic"] = &Scene{Map: tun,
		Walls: []Wall{
			{A: vec.V3(12, -1.6, 0), B: vec.V3(12.5, 0.4, 0), ZMax: 2.5, Texture: TexObstacle},
			{A: vec.V3(30, -1, 0), B: vec.V3(31, 1, 0), ZMin: 0.5, ZMax: 3, Texture: TexObstacle},
			tun.Walls[0], // coincides with a static wall: the static one must win
		},
		Bodies: []Body{
			{Pos: vec.V3(8, 0.3, 1.5), Radius: 0.3, Texture: TexDrone},
			{Pos: vec.V3(20, -0.8, 1.2), Radius: 0.4, Texture: TexDrone},
		}}
	out["s-shape+peers"] = &Scene{Map: SShape(), Bodies: []Body{
		{Pos: vec.V3(25, 1, 1.5), Radius: 0.3, Texture: TexDrone},
		{Pos: vec.V3(40, -2, 2), Radius: 0.3, Texture: TexDrone},
	}}
	return out
}

// longWalls is a Map of two walls over 1,000 km long. castWall's numerator
// then rounds by ~1e-4, so from an origin a few ulps off an endpoint it
// reports hits on rays the exact geometry would not: the fan's every-bucket
// rule for walls whose line passes near the origin must reproduce them.
func longWalls() *Map {
	return &Map{
		Name: "long-walls", GoalX: 40, HalfWidth: 2,
		Centerline: func(float64) (float64, float64) { return 0, 0 },
		Walls: []Wall{
			{A: vec.V3(3e5, 1e5, 0), B: vec.V3(1.7e6, 9e5, 0), ZMax: 8, Texture: TexRightWall},
			{A: vec.V3(-3e5, 4.5e5, 0), B: vec.V3(2e5, -3.5e5, 0), ZMax: 8, Texture: TexLeftWall},
		},
	}
}

// ulps moves p by i ulps in X and j in Y.
func ulps(p vec.Vec3, i, j int) vec.Vec3 {
	step := func(v float64, k int) float64 {
		for ; k > 0; k-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		for ; k < 0; k++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		return v
	}
	return vec.V3(step(p.X, i), step(p.Y, j), p.Z)
}

// TestRayFanBitIdentical casts every ray of fanOrigins × fanDirs through a
// RayFan and through Map.Raycast (Scene.Raycast for scenes with dynamic
// content) and requires bit-identical results, at the camera's range and,
// for every third ray, at a short one. One fan is rebuilt for every origin of every map, as the
// renderer's pooled fans are.
func TestRayFanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var f RayFan
	rays := 0
	scenes := fanScenes()
	names := make([]string, 0, len(scenes))
	for name := range scenes {
		names = append(names, name)
	}
	sort.Strings(names) // one ray sequence every run
	for _, name := range names {
		sc := scenes[name]
		dynamic := len(sc.Walls)+len(sc.Bodies) > 0
		for _, o := range fanOrigins(sc.Map, rng) {
			if dynamic {
				f.BuildScene(sc, o)
			} else {
				f.Build(sc.Map, o)
			}
			for i, d := range fanDirs(sc.Map, o, rng) {
				for _, maxDist := range []float64{120, 7}[:1+i%3/2] {
					var want Hit
					var wok bool
					if dynamic {
						want, wok = sc.Raycast(o, d, maxDist)
					} else {
						want, wok = sc.Map.Raycast(o, d, maxDist)
					}
					got, gok := f.Raycast(d, maxDist)
					if !sameHit(got, gok, want, wok) {
						t.Fatalf("%s: origin %v dir %v maxDist %v: fan %+v (found %v), want %+v (found %v)",
							name, o, d, maxDist, got, gok, want, wok)
					}
					rays++
				}
			}
		}
	}
	t.Logf("%d rays bit-identical", rays)
}

// TestFanKeyMonotone pins the bucket key: counter-clockwise from +X it
// never decreases within one turn and covers every bucket, and it rejects
// zero and non-finite directions.
func TestFanKeyMonotone(t *testing.T) {
	prev, seen := 0, map[int]bool{}
	for i := 0; i < 100000; i++ {
		a := 2 * math.Pi * float64(i) / 100000
		k, ok := fanKey(math.Cos(a), math.Sin(a))
		if !ok || k < prev {
			t.Fatalf("angle %v: key %d (ok %v) after %d", a, k, ok, prev)
		}
		prev = k
		seen[k] = true
	}
	if len(seen) != fanBuckets {
		t.Fatalf("keys cover %d buckets, want %d", len(seen), fanBuckets)
	}
	for _, xy := range [][2]float64{{0, 0}, {math.NaN(), 1}, {1, math.Inf(1)}, {math.MaxFloat64, math.MaxFloat64}} {
		if k, ok := fanKey(xy[0], xy[1]); ok {
			t.Errorf("fanKey%v = %d, want !ok", xy, k)
		}
	}
	if k, _ := fanKey(1, -1e-300); k != 0 {
		t.Errorf("just below +X: key %d, want 0 (wraps)", k)
	}
}

// BenchmarkRayFanBuild times one fan build from mid-course, the per-frame
// overhead the renderer adds.
func BenchmarkRayFanBuild(b *testing.B) {
	for _, name := range []string{"tunnel", "s-shape"} {
		m := ByName(name)
		cy, _ := m.Centerline(m.GoalX / 2)
		o := vec.V3(m.GoalX/2, cy, 1.5)
		b.Run(name, func(b *testing.B) {
			var f RayFan
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.Build(m, o)
			}
			b.ReportMetric(float64(len(f.idx))/float64(len(m.Walls)), "buckets/wall")
		})
	}
}
