package experiments

import (
	"testing"

	"repro/internal/snapshot"
	"repro/internal/world"
)

// benchSink keeps the compiler from eliding the benchmarked work.
var benchSink any

// BenchmarkSnapshotCapture measures one capture + container encode of a live
// mid-mission co-simulation (capture is non-destructive and repeatable at
// the same quantum boundary).
func BenchmarkSnapshotCapture(b *testing.B) {
	spec := paritySpec("tunnel", 0)
	ms, err := NewMission(spec, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer ms.Close()
	if done, err := ms.Step(parityPrefixQuanta); err != nil || done {
		b.Fatalf("prefix: done=%v err=%v", done, err)
	}
	var bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := ms.Capture()
		if err != nil {
			b.Fatal(err)
		}
		enc, err := snapshot.Encode(img)
		if err != nil {
			b.Fatal(err)
		}
		benchSink, bytes = enc, len(enc)
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes), "image_bytes")
}

// BenchmarkSnapshotRestore measures the full fork cost: decode the
// container, rebuild every mission layer from the image, tear it down. The
// read-only state (map, weights) is shared, not rebuilt.
func BenchmarkSnapshotRestore(b *testing.B) {
	spec := paritySpec("tunnel", 0)
	img, err := CaptureMission(spec, parityPrefixQuanta)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := snapshot.Encode(img)
	if err != nil {
		b.Fatal(err)
	}
	m := world.ByName(spec.Map)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := snapshot.Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		ms, err := NewMission(spec, m, dec)
		if err != nil {
			b.Fatal(err)
		}
		ms.Close()
	}
}
