package main

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/experiments"
	"repro/internal/snapshot"
	"repro/internal/world"
)

// kind selects the product entry point that flies a mission.
type kind int

const (
	kindRun   kind = iota // experiments.RunMission
	kindFork              // experiments.ForkMission from a set-up image
	kindSwarm             // experiments.RunSwarm
	kindTCP               // the examples/tcpdeploy topology over loopback
)

// mission is one entry of a workload's mission list. The list is fixed by
// the workload and the seed; the timed phase flies it in passes.
type mission struct {
	name string
	kind kind
	spec experiments.MissionSpec
	// image indexes the set-up images (kindFork).
	image int
	// sensorSeed is the fork's divergence reseed (kindFork).
	sensorSeed int64
}

// workload is one named benchmark input set.
type workload struct {
	name string
	// model is trained in set-up ("" = none).
	model string
	// setupReps is how many complete set-ups a run performs; setup_s is
	// their median.
	setupReps int
	// overlap is the quantum mode every mission of the workload uses.
	overlap core.OverlapMode
	// missions builds the mission list for a seed.
	missions func(seed int64) []mission
	// prefixes lists the shared-prefix specs captured in set-up
	// (patrol-forks only); fork missions index into it.
	prefixes func(seed int64) []experiments.MissionSpec
}

const (
	// patrolPrefixQuanta is the shared prefix every patrol fork starts
	// from: 100 simulated seconds at the default 60 Hz quantum.
	patrolPrefixQuanta = 6000
	// patrolMaxSimSec ends the patrol 20 simulated seconds after the fork.
	patrolMaxSimSec = 120
	// patrolForks is the number of sensor seeds each image is forked under.
	patrolForks = 4
	// tcpSyncCycles is the tcp-1ms granularity: 1 ms at 1 GHz, a Figure 15
	// point.
	tcpSyncCycles = 1_000_000
)

var workloads = []*workload{
	{
		name:      "dnn-flights",
		model:     "ResNet14",
		setupReps: 3,
		overlap:   core.OverlapOn,
		missions: func(seed int64) []mission {
			var ms []mission
			add := func(name string, sp experiments.MissionSpec) {
				sp.Model, sp.StartX, sp.Seed, sp.Overlap = "ResNet14", 2, seed, core.OverlapOn
				sp.SyncCycles = core.DefaultConfig().SyncCycles
				ms = append(ms, mission{name: name, kind: kindRun, spec: sp})
			}
			// Figure 10: configs A and B in the tunnel from three headings.
			for _, hw := range []config.HW{config.A, config.B} {
				for _, yaw := range []float64{-20, 0, 20} {
					add(fmt.Sprintf("tunnel-%s-yaw%+.0f", hw.Name, yaw), experiments.MissionSpec{
						Map: "tunnel", HW: hw, VForward: 3, StartYawDeg: yaw, MaxSimSec: 6,
					})
				}
			}
			// Figures 11-12: the s-shape at higher speeds.
			for _, v := range []float64{6, 9} {
				add(fmt.Sprintf("s-shape-A-v%.0f", v), experiments.MissionSpec{
					Map: "s-shape", HW: config.A, VForward: v, MaxSimSec: 6,
				})
			}
			// The quantized datapath costs ~4x the fp32 host time per
			// inference, so its flight is shorter.
			add("tunnel-A-int8", experiments.MissionSpec{
				Map: "tunnel", HW: config.A, VForward: 3, MaxSimSec: 3, Precision: dnn.PrecisionInt8,
			})
			return ms
		},
	},
	{
		name:      "patrol-forks",
		setupReps: 5, // set-up is short, so more repetitions steady its median
		overlap:   core.OverlapOn,
		prefixes:  patrolPrefixes,
		missions: func(seed int64) []mission {
			var ms []mission
			prefixes := patrolPrefixes(seed)
			for i, f := range patrolFamilies(seed) {
				spec := prefixes[i]
				for k := 0; k < patrolForks; k++ {
					ms = append(ms, mission{
						name: fmt.Sprintf("%s-fork%d", f.family, k), kind: kindFork, spec: spec,
						image: i, sensorSeed: seed*1000 + int64(k),
					})
				}
			}
			ms = append(ms, mission{name: "swarm", kind: kindSwarm, spec: experiments.MissionSpec{
				Map: "tunnel", Scenario: "swarm:" + strconv.FormatInt(seed, 10), HW: config.A, StartX: 2,
				SyncCycles: core.DefaultConfig().SyncCycles, MaxSimSec: 30, Seed: seed, Overlap: core.OverlapOn,
			}})
			return ms
		},
	},
	{
		name:      "tcp-1ms",
		model:     "ResNet6",
		setupReps: 3,
		overlap:   core.OverlapOff,
		missions: func(seed int64) []mission {
			var ms []mission
			for _, yaw := range []float64{-20, 0, 20} {
				ms = append(ms, mission{name: fmt.Sprintf("tunnel-A-yaw%+.0f", yaw), kind: kindTCP, spec: tcpSpec(seed, yaw)})
			}
			return ms
		},
	},
}

// patrolFamily pairs a single-drone scenario family with the map it patrols.
type patrolFamily struct {
	family, scenario, mapName string
}

// patrolFamilies covers every single-drone scenario family, each on its own
// seeded slalom map. A straight scripted patrol stops at the slalom's gates
// (its depth reflex holds it): over 25 seeds per family none reached a
// slalom goal within 150 s, while on the tunnel some finish in 42 s, and a
// prefix that ends its mission cannot be captured.
func patrolFamilies(seed int64) []patrolFamily {
	fams := []string{"calm", "wind", "degraded", "squall", "storm"}
	out := make([]patrolFamily, len(fams))
	for i, f := range fams {
		out[i] = patrolFamily{
			family:   f,
			scenario: f + ":" + strconv.FormatInt(seed, 10),
			mapName:  "slalom:" + strconv.FormatInt(seed*int64(len(fams))+int64(i), 10),
		}
	}
	return out
}

// patrolPrefixes are the shared-prefix specs of the patrol families; each
// fork continues its family's prefix under a new sensor seed.
func patrolPrefixes(seed int64) []experiments.MissionSpec {
	fams := patrolFamilies(seed)
	specs := make([]experiments.MissionSpec, len(fams))
	for i, f := range fams {
		specs[i] = experiments.MissionSpec{
			Map: f.mapName, Scenario: f.scenario, HW: config.A, StartX: 2,
			SyncCycles: core.DefaultConfig().SyncCycles, MaxSimSec: patrolMaxSimSec,
			Seed: seed, Overlap: core.OverlapOn,
		}
	}
	return specs
}

// tcpSpec is a tcp-1ms flight. The same spec flown in-process is the
// reference the remote flight must match.
func tcpSpec(seed int64, yaw float64) experiments.MissionSpec {
	return experiments.MissionSpec{
		Map: "tunnel", Model: "ResNet6", HW: config.A, VForward: 3, StartYawDeg: yaw,
		StartX: 2, SyncCycles: tcpSyncCycles, MaxSimSec: 4, Seed: seed, Overlap: core.OverlapOff,
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}

// image is one captured shared prefix, decoded from its encoded form as a
// restoring process would see it.
type image struct {
	img   *snapshot.Image
	m     *world.Map
	bytes int
}

// setupState is what the timed phase needs from set-up.
type setupState struct {
	images []image
	tcp    *tcpTopology
}

func (st *setupState) close() {
	if st != nil && st.tcp != nil {
		st.tcp.close()
	}
}

// setUp performs one complete set-up: model training (the trained-model
// cache is cleared first, so every set-up pays it), the shared prefixes with
// their image capture, encode and decode and the forks' shared maps, and the
// TCP servers and links. sp, when non-nil, records set-up spans for the traced run.
func setUp(w *workload, seed int64, sp *tracer, counting bool) (*setupState, error) {
	st := &setupState{}
	if w.model != "" {
		dnn.ResetRegistry()
		var err error
		sp.setup(opTrain, func() { _, err = dnn.Trained(w.model) })
		if err != nil {
			return nil, err
		}
	}
	if w.prefixes != nil {
		for _, spec := range w.prefixes(seed) {
			im, err := captureImage(spec, sp)
			if err != nil {
				return nil, fmt.Errorf("capturing %s prefix: %w", spec.Scenario, err)
			}
			st.images = append(st.images, im)
		}
	}
	if w.name == "tcp-1ms" {
		t, err := newTCPTopology(seed, counting, sp)
		if err != nil {
			return nil, err
		}
		st.tcp = t
	}
	return st, nil
}

// captureImage runs a shared prefix, captures its image, and round-trips it
// through the rose-snap/1 encoding. Untraced set-up uses
// experiments.CaptureMission; the traced run assembles the prefix itself so
// that snapshot.Capture gets its own span.
func captureImage(spec experiments.MissionSpec, sp *tracer) (image, error) {
	var (
		img *snapshot.Image
		err error
	)
	if sp == nil {
		img, err = experiments.CaptureMission(spec, patrolPrefixQuanta)
	} else {
		img, err = tracedCapture(spec, patrolPrefixQuanta, sp)
	}
	if err != nil {
		return image{}, err
	}
	var enc []byte
	sp.setup(opEncode, func() { enc, err = snapshot.Encode(img) })
	if err != nil {
		return image{}, err
	}
	sp.setup(opDecode, func() { img, err = snapshot.Decode(enc) })
	if err != nil {
		return image{}, err
	}
	var m *world.Map
	sp.setup(opMap, func() { m = world.ByName(spec.Map) })
	if m == nil {
		return image{}, fmt.Errorf("unknown map %q", spec.Map)
	}
	return image{img: img, m: m, bytes: len(enc)}, nil
}

// outcome is what one flown mission yields: the checked references (one per
// drone) and the work it advanced.
type outcome struct {
	refs []ref
	// quanta, cycles and simSec count only what this mission advanced (a
	// fork's restored prefix is excluded).
	quanta uint64
	cycles uint64
	simSec float64
	// sim are the simulated statistics of the whole mission.
	sim simStats
}

// simStats are simulated (not host) statistics; a simulator-only change
// leaves every one of them identical.
type simStats struct {
	cycles, accelCycles uint64
	energyPJ            uint64
	inferences          int
	latencyMs           []float64
	collisions          int
	missionSec          float64
}

func (s *simStats) add(o simStats) {
	s.cycles += o.cycles
	s.accelCycles += o.accelCycles
	s.energyPJ += o.energyPJ
	s.inferences += o.inferences
	s.latencyMs = append(s.latencyMs, o.latencyMs...)
	s.collisions += o.collisions
	s.missionSec += o.missionSec
}

// fly runs one mission through its product entry point (untraced).
func fly(m mission, st *setupState) (outcome, error) {
	switch m.kind {
	case kindRun:
		out, err := experiments.RunMission(m.spec)
		if err != nil {
			return outcome{}, err
		}
		return outcomeOf([]*experiments.MissionOutcome{out}, nil), nil
	case kindFork:
		im := st.images[m.image]
		out, err := experiments.ForkMission(m.spec, im.img, im.m, m.sensorSeed)
		if err != nil {
			return outcome{}, err
		}
		return outcomeOf([]*experiments.MissionOutcome{out}, im.img), nil
	case kindSwarm:
		outs, err := experiments.RunSwarm(m.spec)
		if err != nil {
			return outcome{}, err
		}
		return outcomeOf(outs, nil), nil
	case kindTCP:
		out, err := st.tcp.fly(m.spec, nil, nil, nil)
		if err != nil {
			return outcome{}, err
		}
		return outcomeOf([]*experiments.MissionOutcome{out}, nil), nil
	}
	return outcome{}, fmt.Errorf("mission %s: unknown kind %d", m.name, m.kind)
}

// outcomeOf summarizes the drones of one mission. from, when non-nil, is
// the image the mission was forked from; its progress is not counted as
// advanced work.
func outcomeOf(outs []*experiments.MissionOutcome, from *snapshot.Image) outcome {
	var o outcome
	for _, out := range outs {
		r := out.Result
		o.refs = append(o.refs, refOf(out))
		o.quanta += r.Syncs
		o.cycles += r.Cycles
		o.simSec += r.SimSeconds
		if from != nil {
			o.quanta -= from.Core.Syncs
			o.cycles -= from.SoC.Cycle
			o.simSec -= from.Core.SimT
		}
		s := simStats{
			cycles: r.Cycles, accelCycles: r.SoC.AccelCycles, energyPJ: r.Energy.TotalPJ(),
			inferences: len(out.Inferences), collisions: r.Collisions, missionSec: r.MissionTimeSec,
		}
		for _, rec := range out.Inferences {
			s.latencyMs = append(s.latencyMs, rec.LatencySec*1e3)
		}
		o.sim.add(s)
	}
	return o
}
