package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/world"
)

// This file implements multi-drone scenario missions: N full co-simulation
// stacks (simulator, SoC machine, controller) flying one shared world in
// lockstep. The fleet members share the read-only map geometry through one
// *world.Map pointer (the same copy-on-write path warm-start forks use) and
// sense each other as collision bodies refreshed at every synchronization
// quantum — peer poses are exchanged at quantum boundaries only, exactly the
// cadence at which the co-simulation exchanges any cross-domain data.

// swarmLaneSpacing is the lateral fan-out between fleet start positions (m).
const swarmLaneSpacing = 1.2

// FleetSize reports the drone count a scenario name implies: 1 for the
// empty name, single-drone scenarios, and unknown names (RunMission surfaces
// the resolution error with the full catalog; this is only a dispatch hint).
func FleetSize(scenarioName string) int {
	if s := scenario.ByName(scenarioName); s != nil && s.Drones > 1 {
		return s.Drones
	}
	return 1
}

// SwarmSpecs expands a fleet mission spec into its per-drone specs: drone i
// gets its own scenario RNG stream block (via Drone), a decorrelated sensor
// seed, and a lateral start lane. The scenario must name a fleet (Drones > 1).
func SwarmSpecs(spec MissionSpec) ([]MissionSpec, error) {
	spec = spec.withDefaults()
	scn, err := spec.scenarioSpec()
	if err != nil {
		return nil, err
	}
	n := 1
	if scn != nil && scn.Drones > 1 {
		n = scn.Drones
	}
	if n <= 1 {
		return nil, fmt.Errorf("experiments: scenario %q is not a fleet (drones = %d)", spec.Scenario, n)
	}
	specs := make([]MissionSpec, n)
	for i := range specs {
		s := spec
		s.Drone = i
		s.Seed = spec.Seed + int64(i)*101
		s.StartY = spec.StartY + (float64(i)-float64(n-1)/2)*swarmLaneSpacing
		specs[i] = s
	}
	return specs, nil
}

// RunSwarm flies a fleet scenario: every drone's full stack advances one
// synchronization quantum at a time, and between quanta each simulator's
// peer list is refreshed with the other drones' previous-quantum poses
// (double-buffered, so the exchange order cannot influence results). Drones
// that finish early stay parked in the world as sensable bodies. Outcomes
// are indexed by drone.
func RunSwarm(spec MissionSpec) ([]*MissionOutcome, error) {
	specs, err := SwarmSpecs(spec)
	if err != nil {
		return nil, err
	}
	n := len(specs)
	m := world.ByName(specs[0].Map)
	if m == nil {
		return nil, fmt.Errorf("experiments: unknown map %q", specs[0].Map)
	}

	missions := make([]*Mission, n)
	defer func() {
		for _, ms := range missions {
			if ms != nil {
				ms.Close()
			}
		}
	}()
	for i, sp := range specs {
		if missions[i], err = NewMission(sp, m, nil); err != nil {
			return nil, fmt.Errorf("experiments: assembling drone %d: %w", i, err)
		}
	}

	// Double-buffered peer exchange: bodies holds every drone's pose at the
	// last completed quantum; peers is the scratch each SetPeers copies from.
	bodies := make([]world.Body, n)
	for i, ms := range missions {
		bodies[i] = ms.Sim().BodyState()
	}
	peers := make([]world.Body, 0, n-1)
	done := make([]bool, n)
	for remaining := n; remaining > 0; {
		for i, ms := range missions {
			if done[i] {
				continue
			}
			peers = peers[:0]
			for j := range bodies {
				if j != i {
					peers = append(peers, bodies[j])
				}
			}
			ms.Sim().SetPeers(peers)
			d, err := ms.Step(1)
			if err != nil {
				return nil, fmt.Errorf("experiments: drone %d: %w", i, err)
			}
			if d {
				done[i] = true
				remaining--
			}
		}
		for i, ms := range missions {
			bodies[i] = ms.Sim().BodyState()
		}
	}

	outs := make([]*MissionOutcome, n)
	for i, ms := range missions {
		if outs[i], err = ms.Finish(); err != nil {
			return nil, fmt.Errorf("experiments: finishing drone %d: %w", i, err)
		}
	}
	return outs, nil
}
