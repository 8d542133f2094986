package ort

import (
	"bytes"
	"testing"

	"repro/internal/dnn"
	"repro/internal/gemmini"
	"repro/internal/soc"
	"repro/internal/tensor"
)

func session(t *testing.T, name string) *Session {
	t.Helper()
	s, err := NewSession(dnn.MustBuild(name, 1), gemmini.Default())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, gemmini.Default()); err == nil {
		t.Error("accepted nil model")
	}
	bad := gemmini.Default()
	bad.MeshRows = 0
	if _, err := NewSession(dnn.MustBuild("ResNet6", 1), bad); err == nil {
		t.Error("accepted invalid gemmini config")
	}
}

func TestPredictShapeMatchesTable3(t *testing.T) {
	// Table 3's orderings:
	//  1. latency grows with model depth (within one platform)
	//  2. Rocket+Gemmini is slower than BOOM+Gemmini (101 vs 77 ... 300 vs 225)
	//  3. CPU-only inference is orders of magnitude slower (§5.1: ~6 s)
	params := soc.DefaultParams()
	boom, rocket := soc.Core(soc.BOOM), soc.Core(soc.Rocket)
	var prevBoom uint64
	for _, name := range dnn.Variants() {
		s := session(t, name)
		cb := s.Predict(boom, params, true)
		cr := s.Predict(rocket, params, true)
		if cb.Total() <= prevBoom {
			t.Errorf("%s BOOM latency %d not above previous %d", name, cb.Total(), prevBoom)
		}
		prevBoom = cb.Total()
		if cr.Total() <= cb.Total() {
			t.Errorf("%s: Rocket (%d) should be slower than BOOM (%d)", name, cr.Total(), cb.Total())
		}
		ratio := float64(cr.Total()) / float64(cb.Total())
		if ratio < 1.05 || ratio > 3.0 {
			t.Errorf("%s: Rocket/BOOM ratio %.2f outside plausible band (paper ~1.3)", name, ratio)
		}
	}
}

func TestPredictResNet14Calibration(t *testing.T) {
	// Calibration anchors (tolerances are generous; EXPERIMENTS.md records
	// exact values): ResNet14 on BOOM+Gemmini ≈ 85 ms, Rocket+Gemmini
	// ≈ 125 ms, CPU-only BOOM ≈ 6 s.
	params := soc.DefaultParams()
	s := session(t, "ResNet14")
	ms := func(c Cost) float64 { return params.CyclesToSeconds(c.Total()) * 1e3 }

	boomGem := ms(s.Predict(soc.Core(soc.BOOM), params, true))
	if boomGem < 40 || boomGem > 170 {
		t.Errorf("ResNet14 BOOM+Gemmini = %.1f ms, paper 85 ms", boomGem)
	}
	rocketGem := ms(s.Predict(soc.Core(soc.Rocket), params, true))
	if rocketGem < 60 || rocketGem > 300 {
		t.Errorf("ResNet14 Rocket+Gemmini = %.1f ms, paper 125 ms", rocketGem)
	}
	cpuOnly := ms(s.Predict(soc.Core(soc.BOOM), params, false))
	if cpuOnly < 2000 || cpuOnly > 15000 {
		t.Errorf("ResNet14 CPU-only = %.1f ms, paper ~6 s", cpuOnly)
	}
	if cpuOnly/boomGem < 20 {
		t.Errorf("accelerator speedup only %.1fx", cpuOnly/boomGem)
	}
}

func TestPredictAccelSplit(t *testing.T) {
	params := soc.DefaultParams()
	s := session(t, "ResNet14")
	with := s.Predict(soc.Core(soc.BOOM), params, true)
	if with.AccelCycles == 0 {
		t.Error("accelerated inference has zero accel cycles")
	}
	without := s.Predict(soc.Core(soc.BOOM), params, false)
	if without.AccelCycles != 0 {
		t.Error("CPU-only inference charged accel cycles")
	}
}

func TestRunChargesPredictedCycles(t *testing.T) {
	s := session(t, "ResNet6")
	input := tensor.New(1, 48, 64)
	outCh := make(chan dnn.Output, 1)
	m := soc.NewMachine(soc.Config{Core: soc.BOOM, Gemmini: true}, func(rt *soc.Runtime) error {
		outCh <- s.Run(rt, input)
		return nil
	})
	defer m.Close()
	pred := s.Predict(soc.Core(soc.BOOM), soc.DefaultParams(), true)
	for !m.Done() {
		m.Step(10_000_000)
	}
	st := m.Stats()
	if st.AccelCycles != pred.AccelCycles {
		t.Errorf("accel cycles %d, predicted %d", st.AccelCycles, pred.AccelCycles)
	}
	if st.ComputeCycles != pred.CPUCycles {
		t.Errorf("cpu cycles %d, predicted %d", st.ComputeCycles, pred.CPUCycles)
	}
	out := <-outCh
	want := s.Net().Forward(input)
	if out != want {
		t.Error("Run output differs from direct forward")
	}
}

func TestRunOnCPUOnlySoC(t *testing.T) {
	s := session(t, "ResNet6")
	input := tensor.New(1, 48, 64)
	m := soc.NewMachine(soc.Config{Core: soc.BOOM, Gemmini: false}, func(rt *soc.Runtime) error {
		s.Run(rt, input)
		return nil
	})
	defer m.Close()
	for !m.Done() {
		m.Step(100_000_000)
	}
	if err := m.Err(); err != nil {
		t.Fatalf("CPU-only run failed: %v", err)
	}
	if m.Stats().AccelCycles != 0 {
		t.Error("accel cycles on a config without Gemmini")
	}
}

func TestSessionFromSerializedModel(t *testing.T) {
	// The deployment flow: build → save (.rmod) → load → session → Run.
	orig := dnn.MustBuild("ResNet6", 9)
	var buf bytes.Buffer
	if err := dnn.Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := dnn.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := NewSession(orig, gemmini.Default())
	s2, err := NewSession(loaded, gemmini.Default())
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 48, 64)
	for i := range in.Data {
		in.Data[i] = float32(i%17)/17 - 0.5
	}
	outCh := make(chan dnn.Output, 2)
	for _, s := range []*Session{s1, s2} {
		m := soc.NewMachine(soc.Config{Core: soc.BOOM, Gemmini: true}, func(rt *soc.Runtime) error {
			outCh <- s.Run(rt, in)
			return nil
		})
		for !m.Done() {
			m.Step(100_000_000)
		}
		m.Close()
	}
	if a, b := <-outCh, <-outCh; a != b {
		t.Errorf("serialized model diverges: %+v vs %+v", a, b)
	}
}

func testInput(seed int) *tensor.Tensor {
	in := tensor.New(1, 48, 64)
	for i := range in.Data {
		in.Data[i] = float32((i*31+seed*97)%23)/23 - 0.5
	}
	return in
}

func TestNewSessionPValidation(t *testing.T) {
	net := dnn.MustBuild("ResNet6", 1)
	if _, err := NewSessionP(net, gemmini.Default(), dnn.Precision(99)); err == nil {
		t.Error("accepted bogus precision")
	}
	s, err := NewSessionP(net, gemmini.Default(), dnn.PrecisionInt8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Precision() != dnn.PrecisionInt8 {
		t.Errorf("precision = %v", s.Precision())
	}
	if session(t, "ResNet6").Precision() != dnn.PrecisionFP32 {
		t.Error("NewSession default is not FP32")
	}
}

func TestInt8PredictCheaper(t *testing.T) {
	// The quantized datapath must actually buy latency — on the doubled
	// int8 mesh with Gemmini, and on the scalar core via IntMACsPerCycle —
	// otherwise the accuracy trade is pointless.
	params := soc.DefaultParams()
	net := dnn.MustBuild("ResNet14", 1)
	fp, err := NewSessionP(net, gemmini.Default(), dnn.PrecisionFP32)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewSessionP(net, gemmini.Default(), dnn.PrecisionInt8)
	if err != nil {
		t.Fatal(err)
	}
	for _, hasGem := range []bool{true, false} {
		for _, core := range []soc.CoreKind{soc.Rocket, soc.BOOM} {
			cf := fp.Predict(soc.Core(core), params, hasGem)
			cq := q.Predict(soc.Core(core), params, hasGem)
			if cq.Total() >= cf.Total() {
				t.Errorf("%v gemmini=%v: int8 %d cycles not below fp32 %d",
					core, hasGem, cq.Total(), cf.Total())
			}
			ratio := float64(cf.Total()) / float64(cq.Total())
			if ratio > 2.5 {
				t.Errorf("%v gemmini=%v: int8 speedup %.2fx implausibly high (mesh is 2x with quant glue)",
					core, hasGem, ratio)
			}
		}
	}
}

func TestInt8RunChargesPredicted(t *testing.T) {
	net := dnn.MustBuild("ResNet6", 3)
	s, err := NewSessionP(net, gemmini.Default(), dnn.PrecisionInt8)
	if err != nil {
		t.Fatal(err)
	}
	input := testInput(1)
	outCh := make(chan dnn.Output, 1)
	m := soc.NewMachine(soc.Config{Core: soc.BOOM, Gemmini: true}, func(rt *soc.Runtime) error {
		outCh <- s.Run(rt, input)
		return nil
	})
	defer m.Close()
	pred := s.Predict(soc.Core(soc.BOOM), soc.DefaultParams(), true)
	for !m.Done() {
		m.Step(10_000_000)
	}
	st := m.Stats()
	if st.AccelCycles != pred.AccelCycles {
		t.Errorf("accel cycles %d, predicted %d", st.AccelCycles, pred.AccelCycles)
	}
	if st.ComputeCycles != pred.CPUCycles {
		t.Errorf("cpu cycles %d, predicted %d", st.ComputeCycles, pred.CPUCycles)
	}
	want := net.ForwardWSP(tensor.NewWorkspace(), input, dnn.PrecisionInt8)
	if out := <-outCh; out != want {
		t.Error("int8 Run output differs from direct int8 forward")
	}
}
