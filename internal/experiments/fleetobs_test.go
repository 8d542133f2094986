package experiments

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
)

// TestFleetScopedMetricsSumToAggregate is the scoped-metrics identity check:
// a 4-mission fleet instruments each mission through its own scope, and the
// suite-level aggregates must equal the sum of the per-mission series
// exactly (counters), with engine counters matching each mission's own
// authoritative result.
func TestFleetScopedMetricsSumToAggregate(t *testing.T) {
	suite := obs.New(0)
	opt := Options{Quick: true, Obs: suite}
	specs := make([]MissionSpec, 4)
	for i := range specs {
		specs[i] = MissionSpec{
			Map: "tunnel", Model: "ResNet6", HW: config.A,
			VForward:    3,
			StartYawDeg: float64(5 * i),
			Seed:        int64(300 + i),
			MaxSimSec:   4,
		}
	}
	specs = opt.stamp(specs)
	for i := range specs {
		if specs[i].Obs == nil {
			t.Fatalf("stamp left spec %d without a mission scope", i)
		}
	}
	outs, err := runMissions(specs, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Counter identity: parent instrument + per-mission scoped instruments
	// must equal the registry aggregate, exactly.
	sumOver := func(per func(m *obs.MissionObs) uint64, parent uint64) uint64 {
		total := parent
		for i := range specs {
			total += per(specs[i].Obs)
		}
		return total
	}
	checks := []struct {
		name   string
		want   uint64
		parent uint64
	}{
		{"rose_cosim_quanta_total",
			sumOver(func(m *obs.MissionObs) uint64 { return m.Core.Quanta.Value() }, suite.Core.Quanta.Value()), suite.Core.Quanta.Value()},
		{"rose_soc_cycles_total",
			sumOver(func(m *obs.MissionObs) uint64 { return m.SoC.Cycles.Value() }, suite.SoC.Cycles.Value()), suite.SoC.Cycles.Value()},
		{"rose_app_inferences_total",
			sumOver(func(m *obs.MissionObs) uint64 { return m.App.Inferences.Value() }, suite.App.Inferences.Value()), suite.App.Inferences.Value()},
	}
	for _, c := range checks {
		if got := suite.Registry.AggCounter(c.name); got != c.want {
			t.Errorf("%s aggregate = %d, want per-mission sum %d (parent %d)", c.name, got, c.want, c.parent)
		}
		if c.parent != 0 {
			t.Errorf("%s parent-side instrument = %d, want 0 (all missions scoped)", c.name, c.parent)
		}
	}

	// Each mission's scoped engine counters must match its own result — the
	// scopes kept the fleet's missions apart, not just their total right.
	var cycleSum uint64
	for i, out := range outs {
		if got := specs[i].Obs.SoC.Cycles.Value(); got != out.Result.Cycles {
			t.Errorf("mission %d scoped cycles = %d, want result %d", i, got, out.Result.Cycles)
		}
		cycleSum += out.Result.Cycles
	}
	if got := suite.Registry.AggCounter("rose_soc_cycles_total"); got != cycleSum {
		t.Errorf("fleet cycle aggregate = %d, want %d", got, cycleSum)
	}

	// The Prometheus exposition must carry both forms: the unlabeled
	// aggregate and one labeled series per mission.
	var b strings.Builder
	suite.Registry.WritePrometheus(&b)
	text := b.String()
	for _, line := range []string{
		"rose_cosim_quanta_total ",
		`mission_id="` + specs[0].Obs.ID + `"`,
		`mission_id="` + specs[3].Obs.ID + `"`,
		`map="tunnel"`,
		`hw="A"`,
	} {
		if !strings.Contains(text, line) {
			t.Errorf("/metrics exposition missing %q", line)
		}
	}
}
