package telemetry

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestFleetStrip(t *testing.T) {
	recs := []obs.QuantumRecord{
		{Mission: "m2", Seq: 40, Cycles: 666_666_680, PowerMW: 1250,
			Inferences: 12, InferMeanSec: 3.1e-3, WallNs: 5_200_000, Fingerprint: 0xd9ad42654a6238e9,
			Telemetry: obs.TelemetrySample{TimeSec: 0.66, PosX: 2.1, PosY: -0.3}},
		{Mission: "m1", Seq: 41, Cycles: 683_333_347,
			Inferences: 13, InferMeanSec: 2.9e-3, WallNs: 4_900_000,
			Telemetry: obs.TelemetrySample{TimeSec: 0.68, PosX: 2.3, PosY: 0.4, MissionComplete: true}},
	}
	out := FleetStrip(recs)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want a header and two rows:\n%s", len(lines), out)
	}
	// Sorted by mission ID, m1 first; the caller's slice keeps its order.
	if !strings.Contains(lines[1], "m1") || !strings.Contains(lines[2], "m2") {
		t.Errorf("rows not sorted by mission:\n%s", out)
	}
	if recs[0].Mission != "m2" {
		t.Error("FleetStrip reordered the caller's records")
	}
	for _, want := range []string{"fingerprint", "d9ad42654a6238e9", "666.7M", "1.25W"} {
		if !strings.Contains(lines[2], want) && !strings.Contains(lines[0], want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(lines[1], " done") || strings.HasSuffix(lines[2], " done") {
		t.Errorf("only m1 completed its mission:\n%s", out)
	}
}

func TestFmtCount(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		want string
	}{{17, "17"}, {1500, "1.5k"}, {2_500_000, "2.5M"}, {3_000_000_000, "3.00G"}} {
		if got := fmtCount(tc.n); got != tc.want {
			t.Errorf("fmtCount(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}
