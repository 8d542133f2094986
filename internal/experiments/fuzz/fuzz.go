// Package fuzz is the property-based mission fuzzer: it sweeps scenario
// families × seeds across procedurally generated worlds and asserts the
// co-simulation's structural invariants on every mission — no tunneling
// through static geometry, positions inside the world's failsafe bounds,
// speed under the analytic physics bound plus the scenario's wind budget,
// an exact energy ledger, fingerprint-identical replay of the same seed,
// and mid-scenario snapshot/restore parity. A violation carries the
// scenario name, the first offending quantum, and a one-line repro command,
// so every failure is a seed away from a debugger.
package fuzz

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/physics"
	"repro/internal/scenario"
	"repro/internal/soc"
	"repro/internal/world"
)

// Config scales the fuzz sweep.
type Config struct {
	// Families are the scenario families to sweep (default: wind, degraded, squall,
	// storm, swarm).
	Families []string
	// Seeds is the number of seeds per family (default 4). Seed s of family
	// f runs scenario "f:s" on generated map mapFamilies[s%3]+":s".
	Seeds int
	// SeedBase offsets the swept seeds (default 1: seeds 1..Seeds).
	SeedBase int
	// MaxSimSec bounds each mission (default 6 s).
	MaxSimSec float64
	// Workers bounds concurrent scenarios (0 = GOMAXPROCS).
	Workers int
	// Only, when non-empty, restricts the sweep to a single "family:seed"
	// scenario — the repro knob violations print.
	Only string
}

// mapFamilies are the procedural world families the sweep rotates through.
var mapFamilies = []string{"corridor", "rooms", "slalom"}

// Violation is one invariant failure.
type Violation struct {
	Scenario  string // scenario name ("storm:7")
	Map       string // map name ("corridor:7")
	Invariant string // which property failed
	Detail    string // human-readable specifics
	Quantum   int    // first offending/divergent quantum, -1 when not localized
	Repro     string // one-line command reproducing this scenario alone
}

func (v Violation) String() string {
	return fmt.Sprintf("%s on %s: %s violated at quantum %d: %s\n  repro: %s",
		v.Scenario, v.Map, v.Invariant, v.Quantum, v.Detail, v.Repro)
}

// Result summarizes a sweep.
type Result struct {
	Scenarios  []string // every scenario name swept, in order
	Missions   int      // total missions run (fleets count each drone)
	Violations []Violation
}

func (cfg Config) withDefaults() Config {
	if len(cfg.Families) == 0 {
		cfg.Families = []string{"wind", "degraded", "squall", "storm", "swarm"}
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 4
	}
	if cfg.SeedBase == 0 {
		cfg.SeedBase = 1
	}
	if cfg.MaxSimSec <= 0 {
		cfg.MaxSimSec = 6
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// Run sweeps the configured scenario grid and returns every violation found.
// An error means the harness itself failed (unknown scenario, sim fault);
// invariant failures are data, not errors.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	type point struct{ scenarioName, mapName string }
	var grid []point
	for _, fam := range cfg.Families {
		for s := 0; s < cfg.Seeds; s++ {
			seed := cfg.SeedBase + s
			p := point{
				scenarioName: fmt.Sprintf("%s:%d", fam, seed),
				mapName:      fmt.Sprintf("%s:%d", mapFamilies[seed%len(mapFamilies)], seed),
			}
			if cfg.Only != "" && p.scenarioName != cfg.Only {
				continue
			}
			grid = append(grid, p)
		}
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("fuzz: empty sweep (only=%q matched nothing)", cfg.Only)
	}

	res := &Result{}
	type cell struct {
		missions   int
		violations []Violation
		err        error
	}
	cells := make([]cell, len(grid))
	workers := cfg.Workers
	if workers > len(grid) {
		workers = len(grid)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				n, vs, err := fuzzOne(cfg, grid[i].scenarioName, grid[i].mapName)
				cells[i] = cell{missions: n, violations: vs, err: err}
			}
		}()
	}
	for i := range grid {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i, c := range cells {
		res.Scenarios = append(res.Scenarios, grid[i].scenarioName)
		if c.err != nil {
			return nil, fmt.Errorf("fuzz: scenario %s: %w", grid[i].scenarioName, c.err)
		}
		res.Missions += c.missions
		res.Violations = append(res.Violations, c.violations...)
	}
	return res, nil
}

// baseSpec is the mission shape every fuzz point flies: the scenario's own
// patrol script (no DNN), hardware config A, fingerprints retained for the
// replay and parity invariants.
func baseSpec(cfg Config, scenarioName, mapName string) experiments.MissionSpec {
	return experiments.MissionSpec{
		Map:                mapName,
		HW:                 config.A,
		Scenario:           scenarioName,
		Seed:               int64(hashName(scenarioName)),
		MaxSimSec:          cfg.MaxSimSec,
		RecordFingerprints: true,
	}
}

// hashName derives the mission seed from the scenario name (FNV-1a, truncated)
// so mission seed and scenario seed are decorrelated but reproducible.
func hashName(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h % 100_000
}

// fuzzOne runs every invariant for one (scenario, map) point.
func fuzzOne(cfg Config, scenarioName, mapName string) (missions int, vs []Violation, err error) {
	scn := scenario.ByName(scenarioName)
	if scn == nil {
		return 0, nil, fmt.Errorf("unknown scenario %q", scenarioName)
	}
	spec := baseSpec(cfg, scenarioName, mapName)
	repro := fmt.Sprintf("ROSE_SCENARIOFUZZ_ONLY=%s go test ./internal/experiments/fuzz -run TestScenarioFuzz -v", scenarioName)
	report := func(invariant, detail string, quantum int) {
		vs = append(vs, Violation{
			Scenario: scenarioName, Map: mapName,
			Invariant: invariant, Detail: detail, Quantum: quantum, Repro: repro,
		})
	}

	if scn.Drones > 1 {
		// Fleet: run twice; check per-drone physical invariants and
		// fingerprint-identical replay of the whole fleet.
		a, err := experiments.RunSwarm(spec)
		if err != nil {
			return 0, nil, err
		}
		b, err := experiments.RunSwarm(spec)
		if err != nil {
			return len(a), vs, err
		}
		for i, out := range a {
			missions++
			checkPhysical(out, scn, func(inv, det string, q int) {
				report(inv, fmt.Sprintf("drone %d: %s", i, det), q)
			})
			if q, ok := experiments.FirstDivergentQuantum(out.Result.Fingerprints, b[i].Result.Fingerprints); ok {
				report("replay-determinism", fmt.Sprintf("drone %d fleet replay diverged", i), q)
			} else if out.Result.Fingerprint != b[i].Result.Fingerprint {
				report("replay-determinism", fmt.Sprintf("drone %d final fingerprints differ with identical chains", i), -1)
			}
		}
		return missions, vs, nil
	}

	// Single drone: baseline run, replay run, and a mid-scenario
	// capture/resume — three missions per point.
	base, err := experiments.RunMission(spec)
	if err != nil {
		return 0, nil, err
	}
	missions++
	checkPhysical(base, scn, report)

	replay, err := experiments.RunMission(spec)
	if err != nil {
		return missions, vs, err
	}
	missions++
	if q, ok := experiments.FirstDivergentQuantum(base.Result.Fingerprints, replay.Result.Fingerprints); ok {
		report("replay-determinism", "same seed, different fingerprint chain", q)
	} else if base.Result.Fingerprint != replay.Result.Fingerprint {
		report("replay-determinism", "final fingerprints differ with identical chains", -1)
	}

	// Snapshot/restore parity: capture halfway through the recorded run and
	// resume. The restored synchronizer carries the prefix's accumulated
	// Result, so the resumed mission's full fingerprint chain must equal the
	// uninterrupted baseline's — prefix and tail both.
	half := len(base.Result.Fingerprints) / 2
	if half > 0 {
		img, err := experiments.CaptureMission(spec, uint64(half))
		if err != nil {
			return missions, vs, err
		}
		checkEnergy(spec, base.Result, img.SoC.Stats.Energy, half, report)
		resumed, err := experiments.ResumeMission(img, nil, true)
		if err != nil {
			return missions, vs, err
		}
		missions++
		if q, ok := experiments.FirstDivergentQuantum(base.Result.Fingerprints, resumed.Result.Fingerprints); ok {
			report("snapshot-parity", fmt.Sprintf("resumed run diverged from the baseline (capture at quantum %d)", half), q)
		} else if len(resumed.Result.Fingerprints) != len(base.Result.Fingerprints) {
			report("snapshot-parity",
				fmt.Sprintf("resumed chain has %d quanta, baseline %d", len(resumed.Result.Fingerprints), len(base.Result.Fingerprints)), -1)
		} else if resumed.Result.Fingerprint != base.Result.Fingerprint {
			report("snapshot-parity",
				fmt.Sprintf("final fingerprint %016x != baseline %016x", resumed.Result.Fingerprint, base.Result.Fingerprint), -1)
		}
	}
	return missions, vs, nil
}

// checkPhysical asserts the per-trajectory invariants of one outcome:
// no tunneling through static geometry, bounds containment, bounded speed.
func checkPhysical(out *experiments.MissionOutcome, scn *scenario.Spec, report func(inv, det string, quantum int)) {
	m := world.ByName(out.Spec.Map)
	if m == nil {
		report("harness", fmt.Sprintf("outcome references unknown map %q", out.Spec.Map), -1)
		return
	}
	tr := out.Result.Trajectory

	// Speed budget: analytic terminal speed under full thrust and drag,
	// plus the scenario's worst-case wind, plus slack for collision impulses.
	p := physics.DefaultParams()
	bound := (4*p.MaxThrust + p.Mass*physics.Gravity) / p.DragCoef
	if scn != nil && scn.Wind != nil {
		bound += scn.Wind.MaxSpeed()
	}
	bound += 1.0

	// Bounds with a failsafe margin: the map's loose box, grown slightly so
	// a legitimate wall bounce at the boundary is not a false positive.
	const margin = 0.5
	lo, hi := m.Bounds.Min, m.Bounds.Max

	for i, tel := range tr {
		if v := tel.Vel.Norm(); v > bound || math.IsNaN(v) {
			report("bounded-speed", fmt.Sprintf("|v|=%.2f m/s exceeds bound %.2f", v, bound), i)
			return
		}
		pos := tel.Pos
		if pos.X < lo.X-margin || pos.X > hi.X+margin ||
			pos.Y < lo.Y-margin || pos.Y > hi.Y+margin ||
			pos.Z < lo.Z-margin || pos.Z > hi.Z+margin {
			report("bounds-containment", fmt.Sprintf("pos %v escaped bounds [%v, %v]", pos, lo, hi), i)
			return
		}
		if i == 0 {
			continue
		}
		if det := crossesWall(m, tr[i-1], tel); det != "" {
			report("no-tunneling", det, i)
			return
		}
	}
}

// checkEnergy asserts the energy-ledger invariants of one single-drone
// outcome: accounting is on, the static term is exactly the configured
// leakage over the elapsed cycles (per domain), and no dynamic domain shrank
// between the mid-mission capture at quantum mid (whose ledger is midPJ)
// and the end.
func checkEnergy(spec experiments.MissionSpec, res *core.Result, midPJ soc.EnergyLedger, mid int, report func(inv, det string, quantum int)) {
	if !res.HasEnergy {
		report("energy-ledger", "mission reported no energy breakdown", -1)
		return
	}
	cfg := spec.HW.SoCConfig()
	if want := soc.EnergyFor(cfg.Core, cfg.Gemmini).Static(res.Cycles); res.Energy.Static != want {
		report("energy-ledger", fmt.Sprintf("static %+v != leakage %+v over %d cycles", res.Energy.Static, want, res.Cycles), -1)
	}
	if d := res.Energy.Dynamic; d.CorePJ < midPJ.CorePJ || d.AccelPJ < midPJ.AccelPJ || d.MemPJ < midPJ.MemPJ {
		report("energy-ledger", fmt.Sprintf("dynamic ledger shrank from %+v to %+v", midPJ, d), mid)
	}
}

// crossesWall checks one trajectory segment against the static map: if the
// segment's ray hits a wall before the segment ends and the endpoint is
// behind that wall, the vehicle tunneled. Returns "" when clean.
func crossesWall(m *world.Map, a, b env.Telemetry) string {
	seg := b.Pos.Sub(a.Pos)
	l := seg.Norm()
	if l < 1e-9 {
		return ""
	}
	hit, ok := m.Raycast(a.Pos, seg, l)
	if !ok || hit.Floor {
		return ""
	}
	// Endpoint behind the hit surface (moved against the normal past the
	// wall) means the segment passed through rather than bounced off.
	if b.Pos.Sub(hit.Point).Dot(hit.Normal) < -0.02 {
		return fmt.Sprintf("segment %v -> %v passes through wall (hit at %v, dist %.3f of %.3f)",
			a.Pos, b.Pos, hit.Point, hit.Dist, l)
	}
	return ""
}

// TotalQuanta returns the quantum count a spec's mission budget implies —
// the fuzzer's yardstick for placing capture points and fault quanta.
func TotalQuanta(maxSimSec float64) uint64 {
	ccfg := core.DefaultConfig()
	return uint64(maxSimSec / (float64(ccfg.SyncCycles) / ccfg.SoCClockHz))
}
