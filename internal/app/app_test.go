package app

import (
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/gemmini"
	"repro/internal/ort"
	"repro/internal/packet"
	"repro/internal/soc"
)

func output(lat, ang [3]float32) dnn.Output {
	return dnn.Output{Lateral: lat, Angular: ang}
}

func TestControlFromOutputSigns(t *testing.T) {
	p := DefaultControlParams(3)
	// UAV offset right (ClassRight high) → move left (positive v_l).
	cmd := ControlFromOutput(output([3]float32{0, 0, 1}, [3]float32{0, 1, 0}), p)
	if cmd.VLateral <= 0 {
		t.Errorf("offset-right should command +lateral, got %v", cmd.VLateral)
	}
	// UAV offset left → move right.
	cmd = ControlFromOutput(output([3]float32{1, 0, 0}, [3]float32{0, 1, 0}), p)
	if cmd.VLateral >= 0 {
		t.Errorf("offset-left should command -lateral, got %v", cmd.VLateral)
	}
	// UAV rotated right → turn left (+yaw rate).
	cmd = ControlFromOutput(output([3]float32{0, 1, 0}, [3]float32{0, 0, 1}), p)
	if cmd.YawRate <= 0 {
		t.Errorf("rotated-right should command +yaw, got %v", cmd.YawRate)
	}
	// Centered → near-zero corrections, forward velocity preserved.
	cmd = ControlFromOutput(output([3]float32{0, 1, 0}, [3]float32{0, 1, 0}), p)
	if cmd.VForward != 3 || math.Abs(cmd.VLateral) > 1e-9 || math.Abs(cmd.YawRate) > 1e-9 {
		t.Errorf("centered command = %+v", cmd)
	}
}

func TestControlScalesWithConfidence(t *testing.T) {
	// Equation 2: corrections are proportional to the softmax margin.
	p := DefaultControlParams(3)
	weak := ControlFromOutput(output([3]float32{0.2, 0.4, 0.4}, [3]float32{1. / 3, 1. / 3, 1. / 3}), p)
	strong := ControlFromOutput(output([3]float32{0.0, 0.1, 0.9}, [3]float32{1. / 3, 1. / 3, 1. / 3}), p)
	if math.Abs(strong.VLateral) <= math.Abs(weak.VLateral) {
		t.Errorf("confidence scaling broken: weak %v strong %v", weak.VLateral, strong.VLateral)
	}
}

func TestArgmaxPolicyFullMagnitude(t *testing.T) {
	p := DefaultControlParams(3)
	p.Argmax = true
	cmd := ControlFromOutput(output([3]float32{0.2, 0.3, 0.5}, [3]float32{0.5, 0.3, 0.2}), p)
	if cmd.VLateral != p.BetaLat {
		t.Errorf("argmax lateral = %v, want full %v", cmd.VLateral, p.BetaLat)
	}
	if cmd.YawRate != -p.BetaAng {
		t.Errorf("argmax yaw = %v, want full %v", cmd.YawRate, -p.BetaAng)
	}
	// Center argmax → zero correction.
	cmd = ControlFromOutput(output([3]float32{0.2, 0.6, 0.2}, [3]float32{0.1, 0.8, 0.1}), p)
	if cmd.VLateral != 0 || cmd.YawRate != 0 {
		t.Errorf("center argmax command = %+v", cmd)
	}
}

func TestTemperatureSharpening(t *testing.T) {
	p := [3]float32{0.2, 0.3, 0.5}
	sharp := sharpen(p, 0.5)
	soft := sharpen(p, 2.0)
	if sharp[2] <= p[2] {
		t.Errorf("T<1 should sharpen: %v", sharp)
	}
	if soft[2] >= p[2] {
		t.Errorf("T>1 should soften: %v", soft)
	}
	var sum float32
	for _, v := range sharp {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-5 {
		t.Errorf("sharpened probs sum to %v", sum)
	}
	if sharpen(p, 1) != p || sharpen(p, 0) != p {
		t.Error("identity temperatures should be no-ops")
	}
}

func TestTemperatureForOrdering(t *testing.T) {
	// Deeper models → lower temperature (sharper confidence), §5.2.
	names := dnn.Variants()
	for i := 1; i < len(names); i++ {
		if TemperatureFor(names[i]) >= TemperatureFor(names[i-1]) {
			t.Errorf("temperature not decreasing: %s=%v %s=%v",
				names[i-1], TemperatureFor(names[i-1]), names[i], TemperatureFor(names[i]))
		}
	}
	if TemperatureFor("unknown") != 1.0 {
		t.Error("unknown model should default to T=1")
	}
}

func TestLogRecords(t *testing.T) {
	l := &Log{}
	if l.MeanLatency() != 0 {
		t.Error("empty log mean latency should be 0")
	}
	l.Add(InferenceRecord{LatencySec: 0.1})
	l.Add(InferenceRecord{LatencySec: 0.3})
	if got := l.MeanLatency(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("mean latency = %v", got)
	}
	recs := l.Records()
	recs[0].LatencySec = 99
	if l.Records()[0].LatencySec == 99 {
		t.Error("Records returned shared storage")
	}
}

// hostHarness drives a machine as the synchronizer would, answering camera
// and depth requests with canned data.
func hostHarness(t testing.TB, m *soc.Machine, quanta int, depth float64) {
	t.Helper()
	pix := make([]byte, 64*48)
	for i := range pix {
		pix[i] = byte(i % 251)
	}
	for i := 0; i < quanta; i++ {
		out, err := m.Pull()
		if err != nil {
			t.Fatal(err)
		}
		var in []packet.Packet
		for _, p := range out {
			switch p.Type {
			case packet.CamReq:
				frame, _ := packet.CamFrame{W: 64, H: 48, Pix: pix}.Marshal()
				in = append(in, frame)
			case packet.DepthReq:
				in = append(in, packet.Depth{Meters: depth}.Marshal())
			case packet.CmdVel:
				// actuation sink
			}
		}
		if err := m.Push(in); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(16_666_667); err != nil {
			t.Fatal(err)
		}
		if m.Done() {
			t.Fatalf("program exited: %v", m.Err())
		}
	}
}

func untrainedSession(t testing.TB, name string) *ort.Session {
	t.Helper()
	s, err := ort.NewSession(dnn.MustBuild(name, 3), gemmini.Default())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStaticControllerLoop(t *testing.T) {
	sess := untrainedSession(t, "ResNet6")
	log := &Log{}
	ctrl := DefaultControlParams(3)
	ctrl.WarmupSec = 0.01
	m := soc.NewMachine(soc.Config{Core: soc.BOOM, Gemmini: true}, StaticController(sess, ctrl, log))
	defer m.Close()
	hostHarness(t, m, 240, 30) // 4 simulated seconds
	recs := log.Records()
	if len(recs) < 10 {
		t.Fatalf("only %d inferences in 4 s", len(recs))
	}
	for _, r := range recs {
		if r.Model != "ResNet6" {
			t.Errorf("model = %q", r.Model)
		}
		if r.LatencySec <= 0 || r.LatencySec > 0.3 {
			t.Errorf("latency = %v", r.LatencySec)
		}
		if r.Cmd.VForward != 3 {
			t.Errorf("forward velocity = %v", r.Cmd.VForward)
		}
	}
	if m.Stats().AccelCycles == 0 {
		t.Error("no accelerator activity recorded")
	}
}

func TestDynamicControllerSwitchesByDeadline(t *testing.T) {
	big := untrainedSession(t, "ResNet14")
	small := untrainedSession(t, "ResNet6")
	ctrl := DefaultControlParams(9)
	ctrl.WarmupSec = 0.01
	dyn := DefaultDynamicParams()

	runWithDepth := func(depth float64) []InferenceRecord {
		log := &Log{}
		m := soc.NewMachine(soc.Config{Core: soc.BOOM, Gemmini: true},
			DynamicController(big, small, ctrl, dyn, log))
		defer m.Close()
		hostHarness(t, m, 180, depth)
		return log.Records()
	}

	// Far obstacle: deadline loose → big network.
	for _, r := range runWithDepth(50) {
		if r.UsedFallback || r.Model != "ResNet14" {
			t.Fatalf("far obstacle used %q fallback=%v", r.Model, r.UsedFallback)
		}
	}
	// Near obstacle: deadline tight → small network.
	recs := runWithDepth(3)
	if len(recs) == 0 {
		t.Fatal("no inferences")
	}
	for _, r := range recs {
		if !r.UsedFallback || r.Model != "ResNet6" {
			t.Fatalf("near obstacle used %q fallback=%v", r.Model, r.UsedFallback)
		}
		if r.DepthMeters <= 0 {
			t.Error("depth not logged")
		}
	}
}

func TestDynamicFasterLoopOnFallback(t *testing.T) {
	big := untrainedSession(t, "ResNet34")
	small := untrainedSession(t, "ResNet6")
	ctrl := DefaultControlParams(9)
	ctrl.WarmupSec = 0.01
	run := func(depth float64) float64 {
		log := &Log{}
		m := soc.NewMachine(soc.Config{Core: soc.BOOM, Gemmini: true},
			DynamicController(big, small, ctrl, DefaultDynamicParams(), log))
		defer m.Close()
		hostHarness(t, m, 120, depth)
		return log.MeanLatency()
	}
	slow, fast := run(50), run(3)
	if fast >= slow {
		t.Errorf("fallback latency %v should be below big-model latency %v", fast, slow)
	}
}

func TestClassicalControllerKernel(t *testing.T) {
	prog, err := ClassicalController(WallFollowerKernel, DefaultClassicalParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	log := &Log{}
	prog2, _ := ClassicalController(WallFollowerKernel, ClassicalParams{
		CruiseMMPerSec: 3000, ThresholdMM: 8000, PeriodSec: 0.05, WarmupSec: 0.01,
	}, log)
	_ = prog

	// Far obstacle → cruise at full speed straight ahead.
	m := soc.NewMachine(soc.Config{Core: soc.Rocket}, prog2)
	defer m.Close()
	hostHarnessClassical(t, m, 120, 30)
	recs := log.Records()
	if len(recs) == 0 {
		t.Fatal("no kernel iterations")
	}
	last := recs[len(recs)-1]
	if last.Cmd.VForward != 3.0 || last.Cmd.YawRate != 0 {
		t.Errorf("cruise cmd = %+v", last.Cmd)
	}

	// Near obstacle → half speed and a left turn.
	log2 := &Log{}
	prog3, _ := ClassicalController(WallFollowerKernel, ClassicalParams{
		CruiseMMPerSec: 3000, ThresholdMM: 8000, PeriodSec: 0.05, WarmupSec: 0.01,
	}, log2)
	m2 := soc.NewMachine(soc.Config{Core: soc.Rocket}, prog3)
	defer m2.Close()
	hostHarnessClassical(t, m2, 120, 4)
	recs2 := log2.Records()
	if len(recs2) == 0 {
		t.Fatal("no kernel iterations near obstacle")
	}
	last2 := recs2[len(recs2)-1]
	if last2.Cmd.VForward != 1.5 || last2.Cmd.YawRate != 0.6 {
		t.Errorf("avoid cmd = %+v", last2.Cmd)
	}
	if m2.Stats().ComputeCycles == 0 {
		t.Error("kernel cycles not charged")
	}
}

func TestClassicalControllerRejectsBadKernel(t *testing.T) {
	if _, err := ClassicalController("bogus instruction", DefaultClassicalParams(), nil); err == nil {
		t.Error("accepted invalid kernel source")
	}
}

// hostHarnessClassical answers depth and IMU requests with canned data.
func hostHarnessClassical(t *testing.T, m *soc.Machine, quanta int, depth float64) {
	t.Helper()
	for i := 0; i < quanta; i++ {
		out, err := m.Pull()
		if err != nil {
			t.Fatal(err)
		}
		var in []packet.Packet
		for _, p := range out {
			switch p.Type {
			case packet.DepthReq:
				in = append(in, packet.Depth{Meters: depth}.Marshal())
			case packet.IMUReq:
				in = append(in, packet.IMU{RPY: [3]float64{0, 0, 0.1}}.Marshal())
			}
		}
		if err := m.Push(in); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(16_666_667); err != nil {
			t.Fatal(err)
		}
		if m.Done() {
			t.Fatalf("program exited: %v", m.Err())
		}
	}
}
