package soc

import (
	"errors"
	"testing"

	"repro/internal/packet"
)

func TestStepConsumesExactBudget(t *testing.T) {
	m := NewMachine(Config{Core: BOOM, Gemmini: true}, func(rt *Runtime) error {
		for {
			rt.Compute(1000)
		}
	})
	defer m.Close()
	used, err := m.Step(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if used != 10_000 || m.Cycle() != 10_000 {
		t.Errorf("used=%d cycle=%d, want 10000", used, m.Cycle())
	}
	st := m.Stats()
	if st.ComputeCycles != 10_000 {
		t.Errorf("compute cycles = %d", st.ComputeCycles)
	}
}

func TestComputeSplitsAcrossQuanta(t *testing.T) {
	finished := make(chan uint64, 1)
	m := NewMachine(Config{Core: Rocket}, func(rt *Runtime) error {
		rt.Compute(2_500)
		finished <- rt.Now()
		rt.Compute(1 << 40) // park forever
		return nil
	})
	defer m.Close()
	// Three quanta of 1000: the 2500-cycle op completes in the third.
	for i := 0; i < 2; i++ {
		m.Step(1000)
		select {
		case <-finished:
			t.Fatalf("compute finished after %d quanta", i+1)
		default:
		}
	}
	m.Step(1000)
	select {
	case at := <-finished:
		// Completed at cycle 2500, observed via Now() (which costs 1).
		if at != 2501 {
			t.Errorf("finished at cycle %d, want 2501", at)
		}
	default:
		t.Fatal("compute did not finish in the third quantum")
	}
}

func TestBlockedRecvIdlesUntilData(t *testing.T) {
	got := make(chan packet.Packet, 1)
	m := NewMachine(Config{Core: BOOM}, func(rt *Runtime) error {
		got <- rt.Recv()
		rt.Compute(1 << 40)
		return nil
	})
	defer m.Close()

	m.Step(5_000)
	if len(got) != 0 {
		t.Fatal("Recv returned without data")
	}
	if st := m.Stats(); st.IdleCycles != 5_000 {
		t.Errorf("idle = %d, want 5000 (stalled quantum)", st.IdleCycles)
	}

	// Deliver a packet at the sync boundary, then grant another quantum.
	if err := m.Push([]packet.Packet{packet.Depth{Meters: 3}.Marshal()}); err != nil {
		t.Fatal(err)
	}
	m.Step(5_000)
	select {
	case p := <-got:
		if p.Type != packet.DepthData {
			t.Errorf("received %v", p.Type)
		}
	default:
		t.Fatal("Recv still blocked after data delivery")
	}
	if st := m.Stats(); st.IOCycles == 0 {
		t.Error("transfer cycles not charged")
	}
	if st := m.Stats(); st.PacketsIn != 1 {
		t.Errorf("packets in = %d", st.PacketsIn)
	}
}

func TestTryRecvNonBlocking(t *testing.T) {
	results := make(chan bool, 4)
	m := NewMachine(Config{Core: BOOM}, func(rt *Runtime) error {
		_, ok := rt.TryRecv()
		results <- ok
		_, ok = rt.TryRecv()
		results <- ok
		rt.Compute(1 << 40)
		return nil
	})
	defer m.Close()
	m.Push([]packet.Packet{packet.Depth{Meters: 1}.Marshal()})
	m.Step(100_000)
	if ok := <-results; !ok {
		t.Error("first TryRecv should find the packet")
	}
	if ok := <-results; ok {
		t.Error("second TryRecv should find nothing")
	}
}

func TestSendAndPull(t *testing.T) {
	m := NewMachine(Config{Core: Rocket}, func(rt *Runtime) error {
		rt.Send(packet.Cmd{VForward: 3}.Marshal())
		rt.Send(packet.Packet{Type: packet.CamReq})
		rt.Compute(1 << 40)
		return nil
	})
	defer m.Close()
	m.Step(100_000)
	out, err := m.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Type != packet.CmdVel || out[1].Type != packet.CamReq {
		t.Fatalf("pulled %+v", out)
	}
	if m.Stats().PacketsOut != 2 {
		t.Errorf("packets out = %d", m.Stats().PacketsOut)
	}
}

func TestSendBackpressure(t *testing.T) {
	sent := make(chan struct{}, 8)
	m := NewMachine(Config{Core: BOOM, TxQueueBytes: 64}, func(rt *Runtime) error {
		for i := 0; i < 3; i++ {
			rt.Send(packet.Cmd{}.Marshal()) // 32 bytes each; 2 fit
			sent <- struct{}{}
		}
		rt.Compute(1 << 40)
		return nil
	})
	defer m.Close()
	m.Step(1_000_000)
	if n := len(sent); n != 2 {
		t.Fatalf("%d sends completed, want 2 (third blocked on full queue)", n)
	}
	// Draining at the boundary unblocks the third send.
	m.Pull()
	m.Step(1_000_000)
	if n := len(sent); n != 3 {
		t.Errorf("%d sends completed after drain, want 3", n)
	}
}

func TestProgramExit(t *testing.T) {
	m := NewMachine(Config{Core: BOOM}, func(rt *Runtime) error {
		rt.Compute(100)
		return nil
	})
	defer m.Close()
	m.Step(1_000)
	if !m.Done() {
		t.Fatal("program should have exited")
	}
	if m.Err() != nil {
		t.Errorf("err = %v", m.Err())
	}
	// Further quanta are pure idle.
	m.Step(500)
	if st := m.Stats(); st.IdleCycles < 500 {
		t.Errorf("idle = %d", st.IdleCycles)
	}
}

func TestProgramError(t *testing.T) {
	want := errors.New("boom")
	m := NewMachine(Config{Core: BOOM}, func(rt *Runtime) error {
		rt.Compute(10)
		return want
	})
	defer m.Close()
	m.Step(100)
	if !m.Done() || !errors.Is(m.Err(), want) {
		t.Errorf("done=%v err=%v", m.Done(), m.Err())
	}
}

func TestAccelAccounting(t *testing.T) {
	m := NewMachine(Config{Core: BOOM, Gemmini: true}, func(rt *Runtime) error {
		rt.ComputeAccel(3_000)
		rt.Compute(2_000)
		return nil
	})
	defer m.Close()
	m.Step(10_000)
	st := m.Stats()
	if st.AccelCycles != 3_000 || st.ComputeCycles != 2_000 {
		t.Errorf("accel=%d compute=%d", st.AccelCycles, st.ComputeCycles)
	}
	if af := st.ActivityFactor(); af != 0.3 {
		t.Errorf("activity factor = %v, want 0.3", af)
	}
}

func TestComputeAccelWithoutGemminiPanics(t *testing.T) {
	errCh := make(chan error, 1)
	m := NewMachine(Config{Core: BOOM, Gemmini: false}, func(rt *Runtime) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = r.(error)
			}
			errCh <- err
		}()
		rt.ComputeAccel(100)
		return nil
	})
	defer m.Close()
	m.Step(1000)
	if err := <-errCh; err == nil {
		t.Error("ComputeAccel without accelerator should panic")
	}
}

func TestRuntimeIntrospection(t *testing.T) {
	type probe struct {
		gem  bool
		core string
		sec  float64
	}
	ch := make(chan probe, 1)
	m := NewMachine(Config{Core: Rocket, Gemmini: true}, func(rt *Runtime) error {
		rt.Compute(500_000_000) // 0.5 s at 1 GHz
		ch <- probe{rt.HasGemmini(), rt.Core().Name, rt.NowSec()}
		return nil
	})
	defer m.Close()
	m.Step(600_000_000)
	p := <-ch
	if !p.gem || p.core != "Rocket" {
		t.Errorf("probe = %+v", p)
	}
	if p.sec < 0.5 || p.sec > 0.5001 {
		t.Errorf("NowSec = %v, want ~0.5", p.sec)
	}
}

func TestCloseMidBlock(t *testing.T) {
	m := NewMachine(Config{Core: BOOM}, func(rt *Runtime) error {
		rt.Recv() // blocks forever: no data will come
		return nil
	})
	m.Step(100)
	m.Close() // must not deadlock
	if m.Err() != nil {
		t.Errorf("killed program reported error %v", m.Err())
	}
}

// A program's own panic (anything but the engine's teardown) surfaces on
// the goroutine that resumed it, where the caller can see it, and leaves a
// machine that still closes.
func TestProgramPanicSurfacesOnCaller(t *testing.T) {
	m := NewMachine(Config{Core: BOOM}, func(rt *Runtime) error {
		rt.Compute(10)
		panic("program fault")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		m.Step(100)
		return nil
	}()
	if got != "program fault" {
		t.Errorf("Step's caller recovered %v, want the program's panic", got)
	}
	m.Close() // must not deadlock or re-panic
}

func TestDeterministicExecution(t *testing.T) {
	run := func() (uint64, Stats) {
		m := NewMachine(Config{Core: BOOM, Gemmini: true}, func(rt *Runtime) error {
			for i := 0; i < 50; i++ {
				rt.Send(packet.Packet{Type: packet.DepthReq})
				p := rt.Recv()
				if p.Type != packet.DepthData {
					return errors.New("bad response")
				}
				rt.ComputeAccel(12_345)
				rt.Compute(678)
			}
			return nil
		})
		defer m.Close()
		for !m.Done() {
			m.Step(10_000)
			out, _ := m.Pull()
			var in []packet.Packet
			for range out {
				in = append(in, packet.Depth{Meters: 5}.Marshal())
			}
			m.Push(in)
		}
		return m.Cycle(), m.Stats()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Errorf("non-deterministic: %d/%+v vs %d/%+v", c1, s1, c2, s2)
	}
}

func TestCostHelpers(t *testing.T) {
	boom, rocket := Core(BOOM), Core(Rocket)
	if ScalarCycles(boom, 1800) != 1000 {
		t.Errorf("ScalarCycles = %d", ScalarCycles(boom, 1800))
	}
	if ScalarCycles(boom, 0) != 0 || ScalarCycles(boom, 1) == 0 {
		t.Error("ScalarCycles edge cases")
	}
	// Rocket is slower than BOOM on every cost class.
	if ScalarCycles(rocket, 1000) <= ScalarCycles(boom, 1000) {
		t.Error("Rocket should cost more scalar cycles")
	}
	if CPUMatmulCycles(rocket, 1e6) <= CPUMatmulCycles(boom, 1e6) {
		t.Error("Rocket should cost more matmul cycles")
	}
	if StreamCycles(rocket, 1e6) <= StreamCycles(boom, 1e6) {
		t.Error("Rocket should cost more stream cycles")
	}
}

func TestParamsConversions(t *testing.T) {
	p := DefaultParams()
	if p.SecondsToCycles(0.085) != 85_000_000 {
		t.Errorf("SecondsToCycles = %d", p.SecondsToCycles(0.085))
	}
	if p.CyclesToSeconds(1_000_000_000) != 1.0 {
		t.Error("CyclesToSeconds broken")
	}
	if p.SecondsToCycles(-1) != 0 {
		t.Error("negative seconds should clamp to 0")
	}
	// Transfer: header+payload beats plus setup.
	if got := p.TransferCycles(32); got != 200+2*8 {
		t.Errorf("TransferCycles(32) = %d", got)
	}
}

func TestCoreKindString(t *testing.T) {
	if Rocket.String() != "Rocket" || BOOM.String() != "BOOM" {
		t.Error("core names wrong")
	}
}

func TestPushDropsOversizedDataPackets(t *testing.T) {
	m := NewMachine(Config{Core: BOOM, RxQueueBytes: 64}, func(rt *Runtime) error {
		rt.Compute(1 << 40)
		return nil
	})
	defer m.Close()
	big := packet.Packet{Type: packet.CamData, Payload: make([]byte, 1024)}
	// Oversized data packets are dropped (bridge counts them), not fatal.
	if err := m.Push([]packet.Packet{big, packet.Depth{Meters: 1}.Marshal()}); err != nil {
		t.Fatalf("push failed: %v", err)
	}
	if m.Bridge().Stats().RxDrops != 1 {
		t.Errorf("drops = %d", m.Bridge().Stats().RxDrops)
	}
	if m.Bridge().PeekRxLen() != 1 {
		t.Errorf("rx len = %d; small packet should still arrive", m.Bridge().PeekRxLen())
	}
	// Malformed sync packets remain fatal.
	if err := m.Push([]packet.Packet{{Type: packet.SyncGrant, Payload: []byte{1}}}); err == nil {
		t.Error("malformed sync packet accepted")
	}
}
