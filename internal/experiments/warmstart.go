package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/world"
)

// This file implements warm-start sweeps: when N scenario variants share a
// mission prefix (same map, model, hardware — only the sensor noise or a
// late-mission knob differs), running the prefix N times is pure waste. The
// warm path runs the prefix once, captures a rose-snap/1 image at the
// divergence quantum, and forks the image into one restored mission per
// sweep point. Forks share the read-only state (map geometry via one
// *world.Map pointer, model weights via the process-wide trained-model
// cache) copy-on-write; everything mutable is rebuilt from the image.

// specMeta is the JSON-serializable subset of MissionSpec embedded in a
// snapshot image's meta section: exactly the fields needed to rebuild the
// mission's read-only parts on restore. Live wiring (Batch, Obs, EnvAddr)
// is deliberately absent — a restored mission gets fresh wiring from its
// restoring process.
type specMeta struct {
	Map            string           `json:"map"`
	Model          string           `json:"model"`
	SmallModel     string           `json:"small_model,omitempty"`
	HW             config.HW        `json:"hw"`
	VForward       float64          `json:"v_forward"`
	StartYawDeg    float64          `json:"start_yaw_deg,omitempty"`
	StartX         float64          `json:"start_x"`
	StartY         float64          `json:"start_y,omitempty"`
	SyncCycles     uint64           `json:"sync_cycles"`
	MaxSimSec      float64          `json:"max_sim_sec"`
	Seed           int64            `json:"seed"`
	Scenario       string           `json:"scenario,omitempty"`
	Drone          int              `json:"drone,omitempty"`
	RxQueueBytes   int              `json:"rx_queue_bytes,omitempty"`
	ExchangeEveryN int              `json:"exchange_every_n,omitempty"`
	Argmax         bool             `json:"argmax,omitempty"`
	Overlap        core.OverlapMode `json:"overlap,omitempty"`
	Precision      dnn.Precision    `json:"precision,omitempty"`
	EnergyOff      bool             `json:"energy_off,omitempty"`
}

// MetaSpec serializes the rebuildable subset of the spec for
// snapshot.Meta.Spec.
func (spec MissionSpec) MetaSpec() (json.RawMessage, error) {
	spec = spec.withDefaults()
	return json.Marshal(specMeta{
		Map: spec.Map, Model: spec.Model, SmallModel: spec.SmallModel,
		HW: spec.HW, VForward: spec.VForward, StartYawDeg: spec.StartYawDeg,
		StartX: spec.StartX, StartY: spec.StartY, SyncCycles: spec.SyncCycles,
		MaxSimSec: spec.MaxSimSec, Seed: spec.Seed,
		Scenario: spec.Scenario, Drone: spec.Drone,
		RxQueueBytes: spec.RxQueueBytes, ExchangeEveryN: spec.ExchangeEveryN,
		Argmax: spec.Argmax, Overlap: spec.Overlap, Precision: spec.Precision,
		EnergyOff: spec.EnergyOff,
	})
}

// SpecFromImage rebuilds the MissionSpec captured in an image's meta
// section (rose-sim -restore starts here).
func SpecFromImage(img *snapshot.Image) (MissionSpec, error) {
	var m specMeta
	if len(img.Meta.Spec) == 0 {
		return MissionSpec{}, fmt.Errorf("experiments: image carries no mission spec")
	}
	if err := json.Unmarshal(img.Meta.Spec, &m); err != nil {
		return MissionSpec{}, fmt.Errorf("experiments: decoding image spec: %w", err)
	}
	return MissionSpec{
		Map: m.Map, Model: m.Model, SmallModel: m.SmallModel,
		HW: m.HW, VForward: m.VForward, StartYawDeg: m.StartYawDeg,
		StartX: m.StartX, StartY: m.StartY, SyncCycles: m.SyncCycles,
		MaxSimSec: m.MaxSimSec, Seed: m.Seed,
		Scenario: m.Scenario, Drone: m.Drone,
		RxQueueBytes: m.RxQueueBytes, ExchangeEveryN: m.ExchangeEveryN,
		Argmax: m.Argmax, Overlap: m.Overlap, Precision: m.Precision,
		EnergyOff: m.EnergyOff,
	}, nil
}

// errRemoteEnv refuses the warm-start paths for a mission whose environment
// is a remote server: its state can be neither captured nor reseeded here.
var errRemoteEnv = errors.New("experiments: snapshots and sensor reseeds require an in-process environment (remote env state is server-owned)")

// runPrefix assembles a fresh mission and steps its shared prefix of
// exactly prefixQuanta quanta. A mission that ends first is an error: there
// would be nothing left to diverge.
func runPrefix(spec MissionSpec, prefixQuanta uint64) (*Mission, error) {
	if spec.EnvAddr != "" {
		return nil, errRemoteEnv
	}
	ms, err := NewMission(spec, nil, nil)
	if err != nil {
		return nil, err
	}
	done, err := ms.Step(int(prefixQuanta))
	if err == nil && done {
		err = fmt.Errorf("experiments: mission ended before quantum %d", prefixQuanta)
	}
	if err != nil {
		ms.Close()
		return nil, err
	}
	return ms, nil
}

// CaptureMission runs the mission's shared prefix for prefixQuanta
// synchronization quanta and captures a snapshot image at that boundary.
// The prefix mission is then discarded — forks continue from the image.
func CaptureMission(spec MissionSpec, prefixQuanta uint64) (*snapshot.Image, error) {
	ms, err := runPrefix(spec, prefixQuanta)
	if err != nil {
		return nil, err
	}
	defer ms.Close()
	return ms.Capture()
}

// ResumeMission restores an image into one mission — spec rebuilt from the
// image's meta section, live wiring (observability, fingerprint recording)
// from the restoring process — and runs it to completion: suspend/resume,
// no variant reseed. With recordFingerprints the resumed run logs its
// per-quantum chain, continuing from the image's captured fingerprint.
func ResumeMission(img *snapshot.Image, o *obs.MissionObs, recordFingerprints bool) (*MissionOutcome, error) {
	spec, err := SpecFromImage(img)
	if err != nil {
		return nil, err
	}
	spec.Obs = o
	spec.RecordFingerprints = recordFingerprints
	ms, err := NewMission(spec, nil, img)
	if err != nil {
		return nil, err
	}
	defer ms.Close()
	return ms.Finish()
}

// ForkMission restores one image into an independent mission, reseeds its
// sensor noise streams with sensorSeed (the per-variant divergence), and
// runs it to completion. sharedMap, when non-nil, is the read-only geometry
// every fork of the same image shares; nil looks the map up by name.
func ForkMission(spec MissionSpec, img *snapshot.Image, sharedMap *world.Map, sensorSeed int64) (*MissionOutcome, error) {
	ms, err := NewMission(spec, sharedMap, img)
	if err != nil {
		return nil, err
	}
	defer ms.Close()
	ms.Sim().ReseedSensors(sensorSeed)
	return ms.Finish()
}

// Fork restores one image into len(seeds) independent missions on the
// worker pool, one sensor seed per sweep point, sharing the map geometry and
// model weights across all forks. Outcomes are indexed like seeds.
func Fork(spec MissionSpec, img *snapshot.Image, seeds []int64, workers int) ([]*MissionOutcome, error) {
	m := world.ByName(spec.Map) // nil: each fork reports the unknown map
	return pool(len(seeds), workers, func(i int) (*MissionOutcome, error) {
		return ForkMission(spec, img, m, seeds[i])
	})
}

// RunColdSweep is the cold baseline at sweep scale: every seed replays the
// full shared prefix, reseeds at the divergence quantum — the identical
// stepwise path as capture + fork, so the two modes are bit-comparable —
// and runs to completion. Outcomes are indexed like seeds.
func RunColdSweep(spec MissionSpec, prefixQuanta uint64, seeds []int64, workers int) ([]*MissionOutcome, error) {
	return pool(len(seeds), workers, func(i int) (*MissionOutcome, error) {
		ms, err := runPrefix(spec, prefixQuanta)
		if err != nil {
			return nil, err
		}
		defer ms.Close()
		ms.Sim().ReseedSensors(seeds[i])
		return ms.Finish()
	})
}

// RunWarmSweep is the warm-start path at sweep scale: run the shared prefix
// once, capture at prefixQuanta, fork per seed. Outcomes are indexed like
// seeds and bit-identical to RunColdSweep's.
func RunWarmSweep(spec MissionSpec, prefixQuanta uint64, seeds []int64, workers int) ([]*MissionOutcome, error) {
	img, err := CaptureMission(spec, prefixQuanta)
	if err != nil {
		return nil, err
	}
	return Fork(spec, img, seeds, workers)
}

// Warmstart compares cold sweeps (every variant replays the shared prefix)
// with warm-start sweeps (snapshot at the divergence quantum, fork per
// variant) and verifies the trajectories are identical between the modes.
func Warmstart(opt Options) (*Report, error) {
	model, variants, maxSec := "ResNet6", 4, 12.0
	if opt.Quick {
		variants, maxSec = 3, 6.0
	}
	spec := MissionSpec{
		Map: "tunnel", Model: model, HW: config.A,
		VForward:  3,
		Seed:      7,
		MaxSimSec: maxSec,
	}
	spec = opt.stamp([]MissionSpec{spec})[0].withDefaults()

	// 75% shared prefix: the divergence quantum sits three quarters into
	// the mission budget.
	ccfg := spec.coreConfig()
	totalQuanta := uint64(spec.MaxSimSec / (float64(spec.SyncCycles) / ccfg.SoCClockHz))
	prefixQuanta := totalQuanta * 3 / 4

	seeds := make([]int64, variants)
	for i := range seeds {
		seeds[i] = int64(1000 + i)
	}

	r := &Report{
		ID: "warmstart",
		Title: fmt.Sprintf("Warm-start sweep: %d variants, %d/%d shared prefix quanta (tunnel, %s, hw A)",
			variants, prefixQuanta, totalQuanta, model),
	}

	// Train outside the timed region (one-time registry cost).
	if _, err := dnn.Trained(spec.Model); err != nil {
		return nil, err
	}

	// Serial on both sides so the comparison isolates the replayed-prefix
	// cost rather than the worker pool.
	coldStart := time.Now()
	cold, err := RunColdSweep(spec, prefixQuanta, seeds, 1)
	if err != nil {
		return nil, err
	}
	coldWall := time.Since(coldStart).Seconds()

	warmStart := time.Now()
	img, err := CaptureMission(spec, prefixQuanta)
	if err != nil {
		return nil, err
	}
	warm, err := Fork(spec, img, seeds, 1)
	if err != nil {
		return nil, err
	}
	warmWall := time.Since(warmStart).Seconds()

	identical := 0
	for i := range seeds {
		if reflect.DeepEqual(cold[i].Result.Trajectory, warm[i].Result.Trajectory) {
			identical++
		}
	}

	enc, err := snapshot.Encode(img)
	if err != nil {
		return nil, err
	}
	speedup := coldWall / warmWall
	r.line("cold : wall=%6.2fs  (%d variants x full prefix replay)", coldWall, variants)
	r.line("warm : wall=%6.2fs  (prefix once + %d forks, image %d KiB)", warmWall, variants, len(enc)/1024)
	r.line("speedup %.2fx; trajectories identical cold-vs-warm: %d/%d", speedup, identical, variants)
	if identical != variants {
		return nil, fmt.Errorf("experiments: warm-start parity broken: only %d/%d variants identical", identical, variants)
	}
	for i, out := range warm {
		r.Trajectories = appendTrajectory(r.Trajectories, fmt.Sprintf("warmstart_seed%d", seeds[i]), out.Result.Trajectory)
	}
	return r, nil
}

// appendTrajectory stores a named trajectory in the report map, allocating
// it on first use.
func appendTrajectory(m map[string][]env.Telemetry, name string, tr []env.Telemetry) map[string][]env.Telemetry {
	if m == nil {
		m = map[string][]env.Telemetry{}
	}
	m[name] = tr
	return m
}
