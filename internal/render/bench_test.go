package render

import (
	"testing"

	"repro/internal/vec"
	"repro/internal/world"
)

// BenchmarkRenderFrame measures one 64x48 FPV frame — the per-image cost of
// the environment simulator — per map, from mid-course on the centerline.
// The maps span 3 walls (tunnel) to 83 (s-shape), so the rows show what
// the per-frame ray fan saves on dense maps and costs on the sparsest: at
// -cpu 1 the tunnel row measured within noise of testing every wall
// (DESIGN.md §4.6), so no wall count switches the fan off.
func BenchmarkRenderFrame(b *testing.B) {
	for _, name := range []string{"tunnel", "slalom:1", "rooms:1", "corridor:1", "s-shape"} {
		m := world.ByName(name)
		b.Run(name, func(b *testing.B) {
			cam := DefaultCamera(64, 48)
			im := NewImage(64, 48)
			x := m.GoalX / 2
			cy, ch := m.Centerline(x)
			pose := Pose{Pos: vec.V3(x, cy, 1.5), Ori: vec.QuatFromEuler(0, 0, ch)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cam.RenderInto(m, pose, im)
			}
			b.ReportMetric(float64(len(m.Walls)), "walls")
		})
	}
}
