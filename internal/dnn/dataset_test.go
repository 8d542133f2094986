package dnn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/render"
	"repro/internal/vec"
	"repro/internal/world"
)

// TestCurvedCorridorFanBitIdentical checks the per-frame ray fan on the
// training corridors GenerateWith renders (curvedCorridor at several
// widths and curvatures, poses sampled as the generator samples them, plus
// hard-rolled and steeply pitched ones): every camera ray's Hit and found
// flag through a world.RayFan must equal Map.Raycast's bit for bit, and
// Camera.Render must equal a render that casts every ray with Map.Raycast.
func TestCurvedCorridorFanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cam := render.DefaultCamera(64, 48)
	halfW := math.Tan(vec.Deg(cam.FOVDeg) / 2)
	halfH := halfW * float64(cam.H) / float64(cam.W)
	fb := math.Float64bits
	same := func(a, b vec.Vec3) bool { return fb(a.X) == fb(b.X) && fb(a.Y) == fb(b.Y) && fb(a.Z) == fb(b.Z) }
	var f world.RayFan
	want := render.NewImage(cam.W, cam.H)
	for _, hw := range []float64{1.3, 2.4, 3.5} {
		for _, kappa := range []float64{-0.015, -0.004, 0, 0.009, 0.015} {
			x0 := 2 + rng.Float64()*40
			m := &world.Map{Walls: curvedCorridor(x0, hw, kappa)}
			for p := 0; p < 6; p++ {
				roll, pitch := (rng.Float64()*2-1)*vec.Deg(4), (rng.Float64()*2-1)*vec.Deg(4)
				if p >= 4 {
					roll, pitch = vec.Deg(80)*float64(2*(p%2)-1), vec.Deg(60)
				}
				pose := render.Pose{
					Pos: vec.V3(x0, (rng.Float64()*2-1)*0.85*hw, 1.5+(rng.Float64()*2-1)*0.4),
					Ori: vec.QuatFromEuler(roll, pitch, (rng.Float64()*2-1)*vec.Deg(45)),
				}
				f.Build(m, pose.Pos)
				for y := 0; y < cam.H; y++ {
					v := halfH * (1 - 2*(float64(y)+0.5)/float64(cam.H))
					for x := 0; x < cam.W; x++ {
						u := halfW * (2*(float64(x)+0.5)/float64(cam.W) - 1)
						dir := pose.Ori.Rotate(vec.V3(1, -u, v).Unit())
						a, aok := f.Raycast(dir, cam.MaxDist)
						b, bok := m.Raycast(pose.Pos, dir, cam.MaxDist)
						if aok != bok || a.Texture != b.Texture || a.Floor != b.Floor ||
							fb(a.Dist) != fb(b.Dist) || fb(a.U) != fb(b.U) || fb(a.V) != fb(b.V) ||
							!same(a.Point, b.Point) || !same(a.Normal, b.Normal) {
							t.Fatalf("hw %v kappa %v pose %d pixel (%d,%d): fan %+v (%v), Map.Raycast %+v (%v)",
								hw, kappa, p, x, y, a, aok, b, bok)
						}
					}
				}
				got := cam.Render(m, pose)
				cam.RenderCaster(m, pose, want)
				for i := range want.Pix {
					if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
						t.Fatalf("hw %v kappa %v pose %d: pixel %d = %v, want %v", hw, kappa, p, i, got.Pix[i], want.Pix[i])
					}
				}
			}
		}
	}
}
