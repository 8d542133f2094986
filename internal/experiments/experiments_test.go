package experiments

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/config"
	"repro/internal/dnn"
)

// TestMain shrinks the training registry so experiment plumbing tests run in
// seconds; accuracy quality is validated separately (and recorded in
// EXPERIMENTS.md from full runs).
func TestMain(m *testing.M) {
	dnn.RegistryTrainPerClass = 30
	dnn.RegistryValPerClass = 15
	os.Exit(m.Run())
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("figure99", Options{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(IDs()) != 13 {
		t.Errorf("IDs() = %v", IDs())
	}
	for _, id := range IDs() {
		if id == "" {
			t.Error("empty experiment id")
		}
	}
}

func TestRunMissionValidation(t *testing.T) {
	if _, err := RunMission(MissionSpec{Map: "mars", Model: "ResNet6"}); err == nil {
		t.Error("unknown map accepted")
	}
	if _, err := RunMission(MissionSpec{Map: "tunnel", Model: "ResNet99"}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestTable3Report(t *testing.T) {
	r, err := Table3(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "table3" {
		t.Errorf("id = %q", r.ID)
	}
	// Header + one row per variant.
	if len(r.Lines) != 1+len(dnn.Variants()) {
		t.Errorf("%d lines", len(r.Lines))
	}
	if len(r.Series) != 4 {
		t.Errorf("%d series", len(r.Series))
	}
	// Latency series increase monotonically with model size.
	lat := r.Series[0]
	for i := 1; i < len(lat.Y); i++ {
		if lat.Y[i] <= lat.Y[i-1] {
			t.Errorf("BOOM latency not increasing: %v", lat.Y)
		}
	}
	// Rocket is slower than BOOM for every model.
	for i := range lat.Y {
		if r.Series[1].Y[i] <= lat.Y[i] {
			t.Errorf("Rocket latency %v not above BOOM %v", r.Series[1].Y[i], lat.Y[i])
		}
	}
}

func TestRunMissionQuick(t *testing.T) {
	// One short closed-loop mission end to end through the harness.
	out, err := RunMission(MissionSpec{
		Map:       "tunnel",
		Model:     "ResNet6",
		HW:        cfgA(t),
		VForward:  3,
		MaxSimSec: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.SimSeconds <= 0 || out.Result.Cycles == 0 {
		t.Errorf("empty result: %+v", out.Result)
	}
	if len(out.Inferences) == 0 {
		t.Error("no inferences logged")
	}
	if len(out.Result.Trajectory) == 0 {
		t.Error("no trajectory recorded")
	}
}

func TestDynamicMissionQuick(t *testing.T) {
	out, err := RunMission(MissionSpec{
		Map:        "s-shape",
		Model:      "ResNet14",
		SmallModel: "ResNet6",
		HW:         cfgA(t),
		VForward:   9,
		MaxSimSec:  6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Inferences) == 0 {
		t.Error("no inferences logged")
	}
	// The fallback count must be consistent with the records.
	n := 0
	for _, r := range out.Inferences {
		if r.UsedFallback {
			n++
		}
	}
	if out.Fallbacks() != n {
		t.Errorf("Fallbacks() = %d, want %d", out.Fallbacks(), n)
	}
}

func TestFigure15Quick(t *testing.T) {
	r, err := Figure15(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	model := r.Series[0]
	if len(model.Y) < 3 {
		t.Fatalf("too few points: %v", model)
	}
	// Modeled FPGA throughput rises with granularity.
	for i := 1; i < len(model.Y); i++ {
		if model.Y[i] <= model.Y[i-1] {
			t.Errorf("modeled throughput not increasing: %v", model.Y)
		}
	}
	// Measured Go throughput is positive everywhere.
	for _, v := range r.Series[1].Y {
		if v <= 0 {
			t.Errorf("non-positive measured throughput: %v", r.Series[1].Y)
		}
	}
}

func cfgA(t *testing.T) config.HW {
	t.Helper()
	return config.A
}

func TestAblationSyncQuick(t *testing.T) {
	r, err := AblationSync(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	lat := r.Series[0]
	if len(lat.Y) < 2 {
		t.Fatal("too few points")
	}
	// Loose exchange must show higher request latency than lockstep.
	if lat.Y[len(lat.Y)-1] <= lat.Y[0] {
		t.Errorf("loose-exchange latency %v not above lockstep %v", lat.Y[len(lat.Y)-1], lat.Y[0])
	}
}

func TestAblationQueueQuick(t *testing.T) {
	r, err := AblationQueue(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	inf := r.Series[0]
	// The undersized queue drops every camera frame: zero inferences.
	if inf.Y[0] != 0 {
		t.Errorf("undersized queue completed %v inferences, want 0", inf.Y[0])
	}
	if inf.Y[len(inf.Y)-1] < 10 {
		t.Errorf("adequate queue completed only %v inferences", inf.Y[len(inf.Y)-1])
	}
}

// TestRunMissionsParallelByteIdentical runs the same sweep through the
// serial path and the bounded worker pool and requires the derived report
// lines — formatted exactly as the figure harnesses format theirs — to be
// byte-identical, along with every trajectory sample bit.
func TestRunMissionsParallelByteIdentical(t *testing.T) {
	var specs []MissionSpec
	for _, yaw := range []float64{-15, 0, 10, 20} {
		specs = append(specs, MissionSpec{
			Map: "tunnel", Model: "ResNet6", HW: config.A,
			VForward: 3, StartYawDeg: yaw, MaxSimSec: 4,
		})
	}
	lines := func(outs []*MissionOutcome) []string {
		var ls []string
		for i, out := range outs {
			ls = append(ls, fmt.Sprintf("yaw %+3.0f°: completed=%-5v mission=%6.2fs collisions=%d infs=%d meanLat=%.6fms",
				specs[i].StartYawDeg, out.Result.Completed, out.Result.MissionTimeSec,
				out.Result.Collisions, len(out.Inferences), meanLatencyMS(out)))
		}
		return ls
	}
	serial, err := runMissions(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := lines(serial)
	for _, workers := range []int{2, 3, len(specs) + 2} {
		par, err := runMissions(specs, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := lines(par)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d line %d:\n got %q\nwant %q", workers, i, got[i], want[i])
			}
		}
		for i := range serial {
			a, b := serial[i].Result.Trajectory, par[i].Result.Trajectory
			if len(a) != len(b) {
				t.Fatalf("workers=%d mission %d: trajectory length %d vs %d", workers, i, len(b), len(a))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("workers=%d mission %d sample %d: %+v vs %+v", workers, i, j, b[j], a[j])
				}
			}
		}
	}
}

// TestRunMissionsPropagatesError checks a failing spec surfaces its error
// deterministically (first failure in spec order) from the parallel pool.
func TestRunMissionsPropagatesError(t *testing.T) {
	specs := []MissionSpec{
		{Map: "tunnel", Model: "ResNet6", HW: config.A, VForward: 3, MaxSimSec: 2},
		{Map: "nowhere", Model: "ResNet6", HW: config.A, VForward: 3, MaxSimSec: 2},
	}
	if _, err := runMissions(specs, 3); err == nil {
		t.Fatal("bad spec did not propagate an error")
	}
}

// TestInt8MissionQuick runs one short quantized mission end to end.
func TestInt8MissionQuick(t *testing.T) {
	out, err := RunMission(MissionSpec{
		Map: "tunnel", Model: "ResNet6", HW: cfgA(t),
		VForward: 3, MaxSimSec: 6, Precision: dnn.PrecisionInt8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Inferences) == 0 {
		t.Error("no inferences logged")
	}
}
