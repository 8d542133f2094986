package render

import (
	"math"
	"testing"

	"repro/internal/vec"
	"repro/internal/world"
)

// TestRenderBandsBitIdentical forces the row-band parallel ray caster (which
// the pixel-count threshold and GOMAXPROCS may keep off in CI), with every
// band reading one ray fan built for the frame, and checks it bit for bit
// against the serial scanline loop casting every ray with Map.Raycast
// (Scene.Raycast for a scene with moving walls and a peer), across worker
// counts that do and do not divide the row count evenly.
func TestRenderBandsBitIdentical(t *testing.T) {
	m := world.SShape()
	cam := DefaultCamera(64, 48)
	pose := levelPose(vec.V3(12, 0.5, 1.4), 0.3)
	sc := &world.Scene{Map: m,
		Walls:  []world.Wall{{A: vec.V3(16, -1, 0), B: vec.V3(17, 1.5, 0), ZMax: 2, Texture: world.TexObstacle}},
		Bodies: []world.Body{{Pos: vec.V3(15, 0.2, 1.5), Radius: 0.3, Texture: world.TexDrone}},
	}

	for _, tc := range []struct {
		name   string
		direct Caster
		build  func(f *world.RayFan)
	}{
		{"map", m, func(f *world.RayFan) { f.Build(m, pose.Pos) }},
		{"scene", sc, func(f *world.RayFan) { f.BuildScene(sc, pose.Pos) }},
	} {
		want := NewImage(cam.W, cam.H)
		renderRows(cam, posed{tc.direct, pose.Pos}, pose.Ori, want, 0, cam.H)
		f := new(world.RayFan)
		tc.build(f)
		for _, workers := range []int{1, 2, 3, 5, 7, cam.H, cam.H + 9} {
			got := NewImage(cam.W, cam.H)
			renderBands(cam, f, pose.Ori, got, workers)
			for i := range want.Pix {
				if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
					t.Fatalf("%s workers=%d pixel %d = %v, want %v", tc.name, workers, i, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
}

// TestBytesIntoReusesBuffer checks BytesInto matches Bytes and recycles a
// caller buffer with sufficient capacity instead of allocating.
func TestBytesIntoReusesBuffer(t *testing.T) {
	im := NewImage(8, 6)
	for i := range im.Pix {
		im.Pix[i] = float32(i) / 40
	}
	want := im.Bytes()

	scratch := make([]byte, 0, len(im.Pix)+5)
	got := im.BytesInto(scratch)
	if len(got) != len(want) {
		t.Fatalf("BytesInto len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], want[i])
		}
	}
	if &got[0] != &scratch[:1][0] {
		t.Error("BytesInto did not reuse the caller's buffer")
	}

	// Too-small buffers must be replaced, not overrun.
	small := im.BytesInto(make([]byte, 3))
	if len(small) != len(want) {
		t.Fatalf("grown buffer len = %d, want %d", len(small), len(want))
	}
}
