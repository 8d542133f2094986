package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/world"
)

// settledGoroutines waits up to a second for exiting goroutines to finish
// and returns the goroutine count once it is at most want (or the last
// count seen).
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestMissionTeardownStopsEnvWorker: every stepwise path that ends a
// mission early — a warm-start prefix that outlives the mission, or a handle
// closed after a partial Step without Finish — must stop the overlap env
// worker. A leaked worker pins the whole mission (simulator, machine,
// controller) for the life of the process.
func TestMissionTeardownStopsEnvWorker(t *testing.T) {
	spec := MissionSpec{Map: "tunnel", Scenario: "calm:1", HW: config.A, MaxSimSec: 1}
	const pastEnd = 100000 // quanta; the mission has 60
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := CaptureMission(spec, pastEnd); err == nil || !strings.Contains(err.Error(), "ended before quantum") {
			t.Fatalf("CaptureMission past the end: want ended-before-quantum error, got %v", err)
		}
		if _, err := RunColdSweep(spec, pastEnd, []int64{1}, 1); err == nil || !strings.Contains(err.Error(), "ended before quantum") {
			t.Fatalf("RunColdSweep past the end: want ended-before-quantum error, got %v", err)
		}
		ms, err := NewMission(spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if done, err := ms.Step(10); err != nil || done {
			t.Fatalf("partial step: done=%v err=%v", done, err)
		}
		ms.Close()
		ms.Close() // idempotent
	}
	if got := settledGoroutines(base); got > base {
		t.Errorf("goroutines grew from %d to %d across early-ended missions", base, got)
	}
}

// TestMissionStepZeroStepsNothing: a zero-quantum Step starts the mission
// but does not advance it — a zero-length prefix captures quantum 0.
func TestMissionStepZeroStepsNothing(t *testing.T) {
	ms, err := NewMission(MissionSpec{Map: "tunnel", Scenario: "calm:1", HW: config.A, MaxSimSec: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if done, err := ms.Step(0); err != nil || done {
		t.Fatalf("Step(0): done=%v err=%v", done, err)
	}
	img, err := ms.Capture()
	if err != nil {
		t.Fatal(err)
	}
	if img.Meta.Quantum != 0 {
		t.Errorf("Step(0) advanced the mission to quantum %d", img.Meta.Quantum)
	}
}

// TestWarmColdParityPatrol: a fork of a captured prefix must equal the cold
// replay of that prefix, quantum for quantum, for every sensor seed — on a
// mission whose trajectory depends on the seed. A degraded-sensor patrol
// does; a ResNet6 tunnel flight does not (every seed ends at the same
// fingerprint there), so only this test can catch a fork that reseeds at
// the wrong quantum. The seeds' final fingerprints must differ, or the
// comparison proves nothing.
func TestWarmColdParityPatrol(t *testing.T) {
	spec := MissionSpec{
		Map: "slalom:3", Scenario: "degraded:3", HW: config.A,
		MaxSimSec: 10, RecordFingerprints: true,
	}
	const prefix = 300 // of 600 quanta
	seeds := []int64{1000, 1001, 1002}
	cold, err := RunColdSweep(spec, prefix, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := CaptureMission(spec, prefix)
	if err != nil {
		t.Fatal(err)
	}
	m := world.ByName(spec.Map)
	finals := map[uint64]int64{}
	for i, seed := range seeds {
		warm, err := ForkMission(spec, img, m, seed)
		if err != nil {
			t.Fatal(err)
		}
		c, w := cold[i].Result.Fingerprints, warm.Result.Fingerprints
		if q, ok := FirstDivergentQuantum(c, w); ok {
			t.Errorf("seed %d: fork diverges from the cold replay at quantum %d\n%s", seed, q, DivergenceReport("cold", c, "warm", w))
		}
		if prev, dup := finals[warm.Result.Fingerprint]; dup {
			t.Errorf("seeds %d and %d end at the same fingerprint %016x: the patrol ignores the sensor seed",
				prev, seed, warm.Result.Fingerprint)
		}
		finals[warm.Result.Fingerprint] = seed
	}
}
