package world

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/vec"
)

func TestTunnelGeometry(t *testing.T) {
	m := Tunnel()
	if m.Name != "tunnel" {
		t.Errorf("name = %q", m.Name)
	}
	if m.GoalX != 50 {
		t.Errorf("goal = %v, want 50", m.GoalX)
	}
	if m.HalfWidth != 1.6 {
		t.Errorf("half-width = %v, want 1.6 (paper: 3.2 m wide)", m.HalfWidth)
	}
	y, h := m.Centerline(25)
	if y != 0 || h != 0 {
		t.Errorf("tunnel centerline = (%v,%v), want (0,0)", y, h)
	}
}

func TestSShapeGeometry(t *testing.T) {
	m := SShape()
	if m.GoalX != 80 {
		t.Errorf("goal = %v, want 80 (paper: 80 m length)", m.GoalX)
	}
	// Centerline is an S: positive early, negative late, zero at ends/middle.
	y0, _ := m.Centerline(0)
	y20, _ := m.Centerline(20)
	y45, _ := m.Centerline(45)
	y60, _ := m.Centerline(60)
	if math.Abs(y0) > 1e-9 || math.Abs(y45) > 1e-9 {
		t.Errorf("centerline nodes not zero: y(0)=%v y(45)=%v", y0, y45)
	}
	if y20 <= 0 || y60 >= 0 {
		t.Errorf("centerline not S-shaped: y(20)=%v y(60)=%v", y20, y60)
	}
	// Straight lead-in for take-off.
	y5, h5 := m.Centerline(5)
	if y5 != 0 || h5 != 0 {
		t.Errorf("lead-in not straight: y(5)=%v h(5)=%v", y5, h5)
	}
	if len(m.Walls) < 40 {
		t.Errorf("s-shape should have many wall segments, got %d", len(m.Walls))
	}
}

func TestRaycastStraightDownTunnel(t *testing.T) {
	m := Tunnel()
	origin := vec.V3(0, 0, 1.5)
	// Looking straight down the +X corridor: nothing within 10 m.
	if h, ok := m.Raycast(origin, vec.V3(1, 0, 0), 10); ok {
		t.Errorf("unexpected hit at %v", h.Dist)
	}
	// Looking sideways: wall at 1.6 m.
	h, ok := m.Raycast(origin, vec.V3(0, 1, 0), 10)
	if !ok {
		t.Fatal("no hit looking at left wall")
	}
	if math.Abs(h.Dist-1.6) > 1e-9 {
		t.Errorf("left wall at %v, want 1.6", h.Dist)
	}
	if h.Texture != TexLeftWall {
		t.Errorf("texture = %d, want %d", h.Texture, TexLeftWall)
	}
	// Normal should face back toward the ray origin.
	if h.Normal.Dot(vec.V3(0, 1, 0)) >= 0 {
		t.Errorf("normal %v does not face ray", h.Normal)
	}
	// Other side.
	h, ok = m.Raycast(origin, vec.V3(0, -1, 0), 10)
	if !ok || math.Abs(h.Dist-1.6) > 1e-9 || h.Texture != TexRightWall {
		t.Errorf("right wall: %+v ok=%v", h, ok)
	}
}

func TestRaycastFloor(t *testing.T) {
	m := Tunnel()
	h, ok := m.Raycast(vec.V3(5, 0, 2), vec.V3(0, 0, -1), 10)
	if !ok || !h.Floor {
		t.Fatalf("expected floor hit, got %+v ok=%v", h, ok)
	}
	if math.Abs(h.Dist-2) > 1e-9 {
		t.Errorf("floor distance = %v, want 2", h.Dist)
	}
	// Looking up: no hit (open sky).
	if _, ok := m.Raycast(vec.V3(5, 0, 2), vec.V3(0, 0, 1), 100); ok {
		t.Error("unexpected hit looking up")
	}
}

func TestRaycastAboveWallHeight(t *testing.T) {
	m := Tunnel()
	// Fly above the wall tops: sideways ray should miss.
	if _, ok := m.Raycast(vec.V3(5, 0, wallHeight+1), vec.V3(0, 1, 0), 10); ok {
		t.Error("hit a wall above its height")
	}
}

func TestRaycastAngled(t *testing.T) {
	m := Tunnel()
	// 45° toward the left wall from center: expect hit at 1.6·√2.
	d := vec.V3(1, 1, 0).Unit()
	h, ok := m.Raycast(vec.V3(0, 0, 1.5), d, 10)
	if !ok {
		t.Fatal("no hit")
	}
	want := 1.6 * math.Sqrt2
	if math.Abs(h.Dist-want) > 1e-9 {
		t.Errorf("dist = %v, want %v", h.Dist, want)
	}
}

func TestCollideTunnel(t *testing.T) {
	m := Tunnel()
	// Center of tunnel at 1.5 m altitude: free.
	if c := m.Collide(vec.V3(10, 0, 1.5), 0.3); c.Collided {
		t.Errorf("false collision: %+v", c)
	}
	// Pressed against the left wall.
	c := m.Collide(vec.V3(10, 1.5, 1.5), 0.3)
	if !c.Collided {
		t.Fatal("missed wall collision")
	}
	if math.Abs(c.Depth-0.2) > 1e-9 {
		t.Errorf("depth = %v, want 0.2", c.Depth)
	}
	// Push-out normal should point back toward the corridor (−Y).
	if c.Normal.Y >= 0 {
		t.Errorf("normal %v should point toward -Y", c.Normal)
	}
	// Ground collision.
	c = m.Collide(vec.V3(10, 0, 0.1), 0.3)
	if !c.Collided || c.Normal.Z != 1 {
		t.Errorf("ground collision: %+v", c)
	}
}

func TestCollideAboveWalls(t *testing.T) {
	m := Tunnel()
	if c := m.Collide(vec.V3(10, 1.6, wallHeight+2), 0.3); c.Collided {
		t.Errorf("collision above wall tops: %+v", c)
	}
}

func TestDepthAhead(t *testing.T) {
	m := Tunnel()
	// Facing the left wall (90° yaw): depth 1.6.
	d := m.DepthAhead(vec.V3(5, 0, 1.5), math.Pi/2, 50)
	if math.Abs(d-1.6) > 1e-9 {
		t.Errorf("depth = %v, want 1.6", d)
	}
	// Facing down the corridor: max distance (clear).
	d = m.DepthAhead(vec.V3(5, 0, 1.5), 0, 30)
	if d != 30 {
		t.Errorf("depth = %v, want 30 (clear)", d)
	}
}

func TestLateralOffset(t *testing.T) {
	m := Tunnel()
	off, herr := m.LateralOffset(vec.V3(5, 0.5, 1.5), 0.1)
	if math.Abs(off-0.5) > 1e-9 || math.Abs(herr-0.1) > 1e-9 {
		t.Errorf("offset=%v herr=%v", off, herr)
	}
	s := SShape()
	// On the centerline with matching heading: zero error.
	cy, ch := s.Centerline(20)
	off, herr = s.LateralOffset(vec.V3(20, cy, 1.5), ch)
	if math.Abs(off) > 1e-9 || math.Abs(herr) > 1e-9 {
		t.Errorf("s-shape centerline offset=%v herr=%v", off, herr)
	}
}

func TestSShapeCorridorIsNavigable(t *testing.T) {
	// Walking the centerline must never collide nor see a wall closer
	// than ~the half-width.
	m := SShape()
	for x := 0.5; x < 79.5; x += 0.5 {
		cy, ch := m.Centerline(x)
		p := vec.V3(x, cy, 1.5)
		if c := m.Collide(p, 0.3); c.Collided {
			t.Fatalf("centerline collides at x=%v: %+v", x, c)
		}
		if d := m.DepthAhead(p, ch, 100); d < 2 {
			t.Fatalf("centerline depth %v at x=%v too small", d, x)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("tunnel") == nil || ByName("s-shape") == nil || ByName("sshape") == nil {
		t.Error("known maps not found")
	}
	if ByName("mars") != nil {
		t.Error("unknown map should be nil")
	}
	if ByName("corridor:7") == nil || ByName("slalom") == nil {
		t.Error("procedural families not found")
	}
	// Hand-built maps take no seed; garbage seeds are rejected.
	if ByName("tunnel:3") != nil || ByName("corridor:xyz") != nil {
		t.Error("invalid seeded names should be nil")
	}
	if len(Names()) != 5 {
		t.Errorf("Names() = %v, want 5 entries", Names())
	}
}

// Regression for the old hardcoded Names() list drifting from ByName: every
// listed name must resolve, and the resolved map must echo the exact name it
// was asked for (round-trip), including seeded procedural instances.
func TestRegistryRoundTrip(t *testing.T) {
	for _, n := range Names() {
		m := ByName(n)
		if m == nil {
			t.Fatalf("Names() lists %q but ByName(%q) = nil", n, n)
		}
		if m.Name != n {
			t.Errorf("ByName(%q).Name = %q, want round-trip", n, m.Name)
		}
	}
	for _, n := range []string{"corridor:7", "rooms:42", "slalom:123"} {
		m := ByName(n)
		if m == nil || m.Name != n {
			t.Errorf("seeded name %q does not round-trip", n)
		}
	}
}

// Same seed must yield byte-identical geometry; different seeds must differ.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, fam := range []string{"corridor", "rooms", "slalom"} {
		a, b := ByName(fam+":9"), ByName(fam+":9")
		if len(a.Walls) != len(b.Walls) {
			t.Fatalf("%s: wall count differs across identical seeds", fam)
		}
		for i := range a.Walls {
			if a.Walls[i] != b.Walls[i] {
				t.Fatalf("%s: wall %d differs across identical seeds", fam, i)
			}
		}
		c := ByName(fam + ":10")
		same := len(a.Walls) == len(c.Walls)
		if same {
			for i := range a.Walls {
				if a.Walls[i] != c.Walls[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: seeds 9 and 10 produced identical geometry", fam)
		}
	}
}

// Every generated map must be navigable along its own centerline: no
// collisions, adequate look-ahead depth, goal reachable inside bounds.
func TestGeneratedMapsNavigable(t *testing.T) {
	for _, fam := range []string{"corridor", "rooms", "slalom"} {
		for seed := 1; seed <= 8; seed++ {
			name := fam + ":" + strconv.Itoa(seed)
			m := ByName(name)
			if m == nil {
				t.Fatalf("ByName(%q) = nil", name)
			}
			if m.GoalX <= 20 || m.HalfWidth <= 0.5 {
				t.Fatalf("%s: degenerate metadata goal=%v halfWidth=%v", name, m.GoalX, m.HalfWidth)
			}
			for x := 0.5; x < m.GoalX-0.5; x += 0.25 {
				cy, ch := m.Centerline(x)
				p := vec.V3(x, cy, 1.5)
				if !m.Bounds.Contains(p) {
					t.Fatalf("%s: centerline leaves bounds at x=%v", name, x)
				}
				if c := m.Collide(p, 0.3); c.Collided {
					t.Fatalf("%s: centerline collides at x=%v: %+v", name, x, c)
				}
				if d := m.DepthAhead(p, ch, 100); d < 1.2 {
					t.Fatalf("%s: centerline depth %v at x=%v too small", name, d, x)
				}
			}
		}
	}
}

// naiveNearest is an independent brute-force reference for Raycast: it
// solves each wall with plane algebra (project onto the wall plane, then
// check the segment/height window) and takes the minimum, with no shared
// code path with castWall.
func naiveNearest(m *Map, o, dir vec.Vec3, maxDist float64) (float64, bool) {
	d := dir.Unit()
	best, found := maxDist, false
	if d.Z < -1e-12 { // ground plane
		if t := -o.Z / d.Z; t > 1e-9 && t < best {
			best, found = t, true
		}
	}
	for i := range m.Walls {
		w := &m.Walls[i]
		n := w.Normal2D()
		den := n.Dot(d)
		if math.Abs(den) < 1e-15 {
			continue
		}
		t := n.Dot(w.A.Sub(o)) / den
		if t <= 1e-9 || t >= best {
			continue
		}
		p := o.Add(d.Scale(t))
		if p.Z < w.ZMin || p.Z > w.ZMax {
			continue
		}
		e := w.B.Sub(w.A).XY()
		s := p.Sub(w.A).XY().Dot(e) / e.NormSq()
		if s < 0 || s > 1 {
			continue
		}
		best, found = t, true
	}
	return best, found
}

// Satellite: raycast-vs-naive reference across generated geometry. DepthAhead
// (the production 2-D cross-product solve) must agree with an independent
// plane-projection intersection over ≥10 seeds per family.
func TestDepthAheadMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, fam := range []string{"corridor", "rooms", "slalom"} {
		for seed := int64(1); seed <= 12; seed++ {
			m := ByName(fam + ":" + strconv.FormatInt(seed, 10))
			for i := 0; i < 60; i++ {
				x := rng.Float64() * m.GoalX
				cy, _ := m.Centerline(x)
				p := vec.V3(x, cy+(rng.Float64()-0.5)*m.HalfWidth, 0.5+rng.Float64()*3)
				yaw := rng.Float64() * 2 * math.Pi
				got := m.DepthAhead(p, yaw, 60)
				dir := vec.V3(math.Cos(yaw), math.Sin(yaw), 0)
				want, ok := naiveNearest(m, p, dir, 60)
				if !ok {
					want = 60
				}
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s:%d depth mismatch at %v yaw=%v: got %v, naive %v",
						fam, seed, p, yaw, got, want)
				}
			}
		}
	}
}

func TestBoundsContains(t *testing.T) {
	b := Bounds{Min: vec.V3(0, 0, 0), Max: vec.V3(1, 1, 1)}
	if !b.Contains(vec.V3(0.5, 0.5, 0.5)) || b.Contains(vec.V3(2, 0, 0)) {
		t.Error("Bounds.Contains broken")
	}
}

// Property: for random rays inside the tunnel, a reported hit distance is
// consistent with re-evaluating the point, and no hit is ever behind the ray.
func TestRaycastConsistency(t *testing.T) {
	m := Tunnel()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		o := vec.V3(rng.Float64()*40, (rng.Float64()-0.5)*3, 0.5+rng.Float64()*2)
		dir := vec.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Unit()
		if dir == vec.Zero3 {
			continue
		}
		h, ok := m.Raycast(o, dir, 100)
		if !ok {
			continue
		}
		if h.Dist <= 0 {
			t.Fatalf("non-positive hit distance %v", h.Dist)
		}
		p := o.Add(dir.Scale(h.Dist))
		if p.Sub(h.Point).Norm() > 1e-9 {
			t.Fatalf("hit point mismatch: %v vs %v", p, h.Point)
		}
		if math.Abs(h.Normal.Norm()-1) > 1e-9 {
			t.Fatalf("non-unit normal %v", h.Normal)
		}
	}
}

// Property: collision depth is bounded by the radius and push-out resolves it.
func TestCollideResolution(t *testing.T) {
	m := SShape()
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 500; i++ {
		p := vec.V3(rng.Float64()*80, (rng.Float64()-0.5)*20, 0.2+rng.Float64()*3)
		c := m.Collide(p, 0.3)
		if !c.Collided {
			continue
		}
		if c.Depth < 0 || c.Depth > 0.3+1e-9 {
			t.Fatalf("depth %v out of range", c.Depth)
		}
		// Moving out along the normal by depth should (nearly) resolve it.
		q := p.Add(c.Normal.Scale(c.Depth + 1e-6))
		if c2 := m.Collide(q, 0.3); c2.Collided && c2.Wall == c.Wall && c2.Depth > 1e-4 {
			t.Fatalf("push-out did not resolve collision: %+v then %+v", c, c2)
		}
	}
}
