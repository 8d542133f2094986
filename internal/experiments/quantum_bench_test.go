package experiments

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

// BenchmarkMissionQuantum measures one steady-state synchronization quantum
// of a fully assembled mission — render, bridge exchange, inference, physics,
// always-on fingerprint fold — with observability disabled. This is the
// repo's 0 allocs/op hot-path contract (scripts/check.sh gates it): mission
// setup allocates, the per-quantum loop must not.
func BenchmarkMissionQuantum(b *testing.B) {
	spec := MissionSpec{
		Map: "tunnel", Model: "ResNet6", HW: config.A,
		VForward: 3, MaxSimSec: 1e9, Overlap: core.OverlapOn,
	}
	benchMissionQuantum(b, spec)
}

// BenchmarkMissionQuantumScenario pairs the same DNN mission with and
// without active disturbances. "squall" turns on wind turbulence plus depth
// and IMU degradation every frame with static world geometry — its ns/op
// must stay within a few percent of "calm" (the disturbance machinery is
// cheap). "storm" adds moving obstacles, which legitimately cost more: the
// renderer and collision queries leave the static-map fast path.
func BenchmarkMissionQuantumScenario(b *testing.B) {
	base := MissionSpec{
		Map: "tunnel", Model: "ResNet6", HW: config.A,
		VForward: 3, MaxSimSec: 1e9, Overlap: core.OverlapOn, Seed: 7,
	}
	for _, scn := range []string{"", "squall:1", "storm:1"} {
		name := "calm"
		if scn != "" {
			name = scn[:len(scn)-2]
		}
		spec := base
		spec.Scenario = scn
		b.Run(name, func(b *testing.B) { benchMissionQuantum(b, spec) })
	}
}

func benchMissionQuantum(b *testing.B, spec MissionSpec) {
	newMission := func() *Mission {
		ms, err := NewMission(spec, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Warm every scratch buffer (inference workspaces, bridge queues,
		// telemetry codec) before the measured steady state.
		if _, err := ms.Step(16); err != nil {
			b.Fatal(err)
		}
		return ms
	}
	ms := newMission()
	defer func() { ms.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := ms.Step(1)
		if err != nil {
			b.Fatal(err)
		}
		if done {
			// The vehicle reached the tunnel end: rebuild outside the
			// timer (StopTimer also pauses allocation accounting).
			b.StopTimer()
			ms.Close()
			ms = newMission()
			b.StartTimer()
		}
	}
}

// BenchmarkQuantumFine is one steady-state quantum of Figure 15's synthetic
// co-simulation at its finest point, 10k cycles per quantum, in process
// and overlapped. One quantum in 1667 is due a frame, so nearly every
// quantum costs the RTL step and the telemetry sample alone: the
// per-synchronization overhead that sets Figure 15's fine-granularity
// throughput. One op is one quantum.
func BenchmarkQuantumFine(b *testing.B) {
	sy, machine, err := figure15Mission(10_000, 1e9)
	if err != nil {
		b.Fatal(err)
	}
	defer machine.Close()
	if err := sy.Start(); err != nil {
		b.Fatal(err)
	}
	defer sy.Finish()
	// Warm past a frame and several sensor round trips.
	if _, err := sy.StepQuanta(4000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := sy.StepQuanta(b.N); err != nil {
		b.Fatal(err)
	}
}
