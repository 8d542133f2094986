package experiments

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/ort"
	"repro/internal/telemetry"
)

// Fleet measures host-side simulation throughput — missions per second per
// host — when N identical-configuration missions run concurrently, with and
// without the cross-mission batched-inference collector (ort.BatchGroup).
// This is the deployment-fleet question behind the paper's §5 evaluation
// scale: how many co-simulated robot runs one simulation host sustains.
// Batching shares each weight panel across the whole fleet's per-quantum
// forward passes, so it buys host throughput without touching simulated
// timing; per-mission results are bit-identical to solo execution, which
// the report checks outcome-by-outcome.
func Fleet(opt Options) (*Report, error) {
	// The full sweep runs ResNet14: batching pays where late-stage weight
	// panels dominate per-image GEMM cost, and ResNet6 (every layer
	// large-M) is host-neutral under batching. Quick mode keeps ResNet6 so
	// tests exercise the whole protocol without the deeper model's
	// training cost.
	model, size, maxSec := "ResNet14", 4, 12.0
	if opt.Quick {
		model, size, maxSec = "ResNet6", 2, 8.0
	}
	r := &Report{
		ID:    "fleet",
		Title: fmt.Sprintf("Fleet throughput: batched multi-mission inference (tunnel, %s, hw A, 3 m/s)", model),
	}

	specs := make([]MissionSpec, size)
	for i := range specs {
		specs[i] = MissionSpec{
			Map: "tunnel", Model: model, HW: config.A,
			VForward:    3,
			StartYawDeg: float64(4 * i),
			Seed:        int64(100 + i),
			MaxSimSec:   maxSec,
		}
	}
	specs = opt.stamp(specs)

	// Train outside the timed region: the registry's one-time model
	// training would otherwise be charged to whichever mode runs first.
	if _, err := dnn.Trained(specs[0].Model); err != nil {
		return nil, err
	}

	solo, soloWall, err := runFleetConcurrent(specs)
	if err != nil {
		return nil, err
	}

	batched := make([]MissionSpec, size)
	copy(batched, specs)
	trained, err := dnn.Trained(specs[0].Model)
	if err != nil {
		return nil, err
	}
	group, err := ort.NewBatchGroup(trained.Net, specs[0].Precision, size)
	if err != nil {
		return nil, err
	}
	for i := range batched {
		batched[i].Batch = group
	}
	bat, batWall, err := runFleetConcurrent(batched)
	if err != nil {
		return nil, err
	}

	identical := true
	for i := range solo {
		a, b := solo[i].Result, bat[i].Result
		if a.Completed != b.Completed || a.MissionTimeSec != b.MissionTimeSec ||
			a.Collisions != b.Collisions || a.Cycles != b.Cycles ||
			len(solo[i].Inferences) != len(bat[i].Inferences) {
			identical = false
			r.line("mission %d DIVERGED under batching: solo (done=%v t=%.2fs cyc=%d) vs batched (done=%v t=%.2fs cyc=%d)",
				i, a.Completed, a.MissionTimeSec, a.Cycles, b.Completed, b.MissionTimeSec, b.Cycles)
		}
	}

	soloRate := float64(size) / soloWall
	batRate := float64(size) / batWall
	r.line("fleet of %d missions, %.0fs budget, precision=%v", size, maxSec, specs[0].Precision)
	r.line("solo    : wall=%6.1fs  %.3f missions/sec/host", soloWall, soloRate)
	r.line("batched : wall=%6.1fs  %.3f missions/sec/host  (%d rounds)", batWall, batRate, group.Rounds())
	r.line("host speedup %.2fx, per-mission results identical: %v", batRate/soloRate, identical)
	if !identical {
		return nil, fmt.Errorf("experiments: fleet batching changed mission results")
	}

	rate := telemetry.Series{Name: "missions_per_sec_host"}
	rate.Add(1, soloRate)
	rate.Add(float64(size), batRate)
	r.Series = []telemetry.Series{rate}
	return r, nil
}

// runFleetConcurrent runs every spec on its own worker — mandatory for
// batch members (a mission parked in the collector blocks its Machine.Step
// until the whole round arrives) and the fair baseline for solo mode — and
// returns the outcomes with the fleet's wall-clock seconds.
func runFleetConcurrent(specs []MissionSpec) ([]*MissionOutcome, float64, error) {
	start := time.Now()
	outs, err := runMissions(specs, len(specs))
	return outs, time.Since(start).Seconds(), err
}
