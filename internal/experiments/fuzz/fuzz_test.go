package fuzz

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/vec"
)

// TestScenarioFuzz is the property-based mission sweep. The default budget
// keeps `go test ./...` fast; `make scenariofuzz` raises it via
// ROSE_SCENARIOFUZZ_SEEDS, and a failure's printed repro narrows the sweep
// to one scenario with ROSE_SCENARIOFUZZ_ONLY.
func TestScenarioFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario fuzz skipped in -short mode")
	}
	cfg := Config{Only: os.Getenv("ROSE_SCENARIOFUZZ_ONLY")}
	if v := os.Getenv("ROSE_SCENARIOFUZZ_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("ROSE_SCENARIOFUZZ_SEEDS=%q: %v", v, err)
		}
		cfg.Seeds = n
	} else {
		cfg.Seeds = 2
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fuzzed %d scenarios, %d missions", len(res.Scenarios), res.Missions)
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestInjectedFaultLocalizedToQuantum proves the harness can catch and
// localize a real divergence: an impulse fault (a lateral velocity kick)
// injected at quantum 40 must make the fingerprint chain diverge at (or
// within a quantum or two after) the injection point — not earlier, not
// only at mission end.
func TestInjectedFaultLocalizedToQuantum(t *testing.T) {
	spec := baseSpec(Config{MaxSimSec: 3}.withDefaults(), "wind:5", "corridor:5")

	clean, err := experiments.RunMission(spec)
	if err != nil {
		t.Fatal(err)
	}
	const faultQuantum = 40
	if len(clean.Result.Fingerprints) <= faultQuantum+3 {
		t.Fatalf("mission too short for the fault quantum: %d quanta", len(clean.Result.Fingerprints))
	}

	ms, err := experiments.NewMission(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if done, err := ms.Step(faultQuantum); err != nil || done {
		t.Fatalf("stepping to the fault quantum: done=%v err=%v", done, err)
	}
	ms.Sim().InjectImpulse(vec.V3(0, 1.5, 0))
	faulted, err := ms.Finish()
	if err != nil {
		t.Fatal(err)
	}

	q, ok := experiments.FirstDivergentQuantum(clean.Result.Fingerprints, faulted.Result.Fingerprints)
	if !ok {
		t.Fatal("injected fault produced an identical fingerprint chain")
	}
	if q < faultQuantum || q > faultQuantum+2 {
		t.Errorf("divergence localized at quantum %d, want within [%d, %d]\n%s",
			q, faultQuantum, faultQuantum+2,
			experiments.DivergenceReport("clean", clean.Result.Fingerprints, "faulted", faulted.Result.Fingerprints))
	}
}
