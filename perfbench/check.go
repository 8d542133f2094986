package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// ref is the checked output of one drone of one mission.
type ref struct {
	Fingerprint string `json:"fingerprint"`
	Cycles      uint64 `json:"cycles"`
	Inferences  int    `json:"inferences"`
	Collisions  int    `json:"collisions"`
	EnergyPJ    uint64 `json:"energy_pj"`
}

func refOf(o *experiments.MissionOutcome) ref {
	return ref{
		Fingerprint: fmt.Sprintf("%016x", o.Result.Fingerprint),
		Cycles:      o.Result.Cycles,
		Inferences:  len(o.Inferences),
		Collisions:  o.Result.Collisions,
		EnergyPJ:    o.Result.Energy.TotalPJ(),
	}
}

// diff names the fields in which got differs from want.
func (want ref) diff(got ref) []string {
	var d []string
	if got.Fingerprint != want.Fingerprint {
		d = append(d, fmt.Sprintf("fingerprint %s (want %s)", got.Fingerprint, want.Fingerprint))
	}
	if got.Cycles != want.Cycles {
		d = append(d, fmt.Sprintf("cycles %d (want %d)", got.Cycles, want.Cycles))
	}
	if got.Inferences != want.Inferences {
		d = append(d, fmt.Sprintf("inferences %d (want %d)", got.Inferences, want.Inferences))
	}
	if got.Collisions != want.Collisions {
		d = append(d, fmt.Sprintf("collisions %d (want %d)", got.Collisions, want.Collisions))
	}
	if got.EnergyPJ != want.EnergyPJ {
		d = append(d, fmt.Sprintf("energy_pj %d (want %d)", got.EnergyPJ, want.EnergyPJ))
	}
	return d
}

// diffRefs compares the drones of one mission.
func diffRefs(want, got []ref) []string {
	if len(want) != len(got) {
		return []string{fmt.Sprintf("drones %d (want %d)", len(got), len(want))}
	}
	var d []string
	for i := range want {
		for _, f := range want[i].diff(got[i]) {
			if len(want) > 1 {
				f = fmt.Sprintf("drone %d %s", i, f)
			}
			d = append(d, f)
		}
	}
	return d
}

// refTable holds references by workload, seed and mission.
type refTable map[string]map[string]map[string][]ref

//go:embed refs.json
var refsJSON []byte

// Reference seeds: the default seed and one seed held out while the
// benchmark was tuned.
const (
	defaultSeed = 1
	heldOutSeed = 1009
)

func loadRefs() (refTable, error) {
	var t refTable
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		return nil, fmt.Errorf("decoding embedded refs.json: %w", err)
	}
	return t, nil
}

// lookup returns the references for a workload at a seed (nil if none).
func (t refTable) lookup(workload string, seed int64) map[string][]ref {
	return t[workload][strconv.FormatInt(seed, 10)]
}

// checker verifies mission outputs and counts the missions that failed.
type checker struct {
	workload string
	// want holds the expected output per mission, from stored references
	// or from a cross-check run.
	want map[string][]ref
	// how names the check that produced want.
	how string
	// stored is set when want holds stored references; a mission without
	// one then fails instead of being compared with its first pass.
	stored bool
	// out receives the mismatch reports.
	out      io.Writer
	attempts int
	failures int
}

// check compares one flown mission with its expectation and reports a
// mismatch naming the workload, the mission and the fields that differ.
// Without stored references, a missing expectation is recorded from the
// first output, so later passes of the same mission must repeat it exactly.
func (c *checker) check(name string, got []ref) {
	c.attempts++
	want, ok := c.want[name]
	switch {
	case !ok && c.stored:
		c.failures++
		fmt.Fprintf(c.out, "mismatch: workload=%s mission=%s check=%s: no stored reference\n", c.workload, name, c.how)
	case !ok:
		c.want[name] = got
	default:
		if d := diffRefs(want, got); len(d) > 0 {
			c.failures++
			fmt.Fprintf(c.out, "mismatch: workload=%s mission=%s check=%s: %s\n",
				c.workload, name, c.how, strings.Join(d, "; "))
		}
	}
}

// fail records a mission that returned an error.
func (c *checker) fail(name string, err error) {
	c.attempts++
	c.failures++
	fmt.Fprintf(c.out, "error: workload=%s mission=%s: %v\n", c.workload, name, err)
}

// okPct is the share of attempted missions that finished and matched.
func (c *checker) okPct() float64 {
	if c.attempts == 0 {
		return 0
	}
	return 100 * float64(c.attempts-c.failures) / float64(c.attempts)
}

// crossCheck computes expectations for a seed without stored references by
// a second product path:
//   - tcp-1ms: each flight in-process (remote ≡ local);
//   - patrol-forks: each fork cold, replaying its whole prefix (warm ≡ cold);
//   - dnn-flights: none; every pass must repeat the first (determinism).
func crossCheck(w *workload, seed int64) (map[string][]ref, string, error) {
	want := map[string][]ref{}
	switch w.name {
	case "tcp-1ms":
		for _, m := range w.missions(seed) {
			out, err := experiments.RunMission(m.spec)
			if err != nil {
				return nil, "", fmt.Errorf("in-process %s: %w", m.name, err)
			}
			want[m.name] = []ref{refOf(out)}
		}
		return want, "remote=local", nil
	case "patrol-forks":
		for _, m := range w.missions(seed) {
			if m.kind != kindFork {
				continue
			}
			outs, err := experiments.RunColdSweep(m.spec, patrolPrefixQuanta, []int64{m.sensorSeed}, 1)
			if err != nil {
				return nil, "", fmt.Errorf("cold %s: %w", m.name, err)
			}
			want[m.name] = []ref{refOf(outs[0])}
		}
		return want, "warm=cold+repeat", nil
	}
	return want, "repeat", nil
}

// generateRefs computes references for every workload at the reference
// seeds through the product entry points and writes them to path: in-process
// flights for dnn-flights and tcp-1ms (remote ≡ local is a repository
// contract), cold replays for the patrol forks, RunSwarm for the swarm.
func generateRefs(path string) error {
	t := refTable{}
	for _, w := range workloads {
		t[w.name] = map[string]map[string][]ref{}
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			byMission := map[string][]ref{}
			for _, m := range w.missions(seed) {
				var outs []*experiments.MissionOutcome
				var err error
				switch m.kind {
				case kindRun, kindTCP:
					var out *experiments.MissionOutcome
					out, err = experiments.RunMission(m.spec)
					outs = []*experiments.MissionOutcome{out}
				case kindFork:
					outs, err = experiments.RunColdSweep(m.spec, patrolPrefixQuanta, []int64{m.sensorSeed}, 1)
				case kindSwarm:
					outs, err = experiments.RunSwarm(m.spec)
				}
				if err != nil {
					return fmt.Errorf("%s/%d/%s: %w", w.name, seed, m.name, err)
				}
				for _, out := range outs {
					byMission[m.name] = append(byMission[m.name], refOf(out))
				}
			}
			t[w.name][strconv.FormatInt(seed, 10)] = byMission
		}
	}
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
