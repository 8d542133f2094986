package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/env"
	"repro/internal/packet"
	"repro/internal/soc"
	"repro/internal/world"
)

func newEnv(t *testing.T) *env.Sim {
	t.Helper()
	sim, err := env.New(env.DefaultConfig(world.Tunnel()))
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// cruiser is a minimal target program: command forward flight, then poll
// depth forever.
func cruiser(v float64) soc.Program {
	return func(rt *soc.Runtime) error {
		rt.Send(packet.Cmd{VForward: v}.Marshal())
		for {
			rt.Send(packet.Packet{Type: packet.DepthReq})
			rt.Recv()
			rt.Compute(5_000_000)
		}
	}
}

func TestNewValidation(t *testing.T) {
	sim := newEnv(t)
	m := soc.NewMachine(soc.Config{Core: soc.BOOM}, cruiser(1))
	defer m.Close()
	if _, err := New(nil, m, DefaultConfig()); err == nil {
		t.Error("accepted nil env")
	}
	if _, err := New(sim, nil, DefaultConfig()); err == nil {
		t.Error("accepted nil RTL")
	}
	cfg := DefaultConfig()
	cfg.SyncCycles = 0
	if _, err := New(sim, m, cfg); err == nil {
		t.Error("accepted zero granularity")
	}
	cfg = DefaultConfig()
	cfg.MaxSimSeconds = 0
	if _, err := New(sim, m, cfg); err == nil {
		t.Error("accepted zero time budget")
	}
}

func TestLockstepAdvancesBothSimulators(t *testing.T) {
	sim := newEnv(t)
	m := soc.NewMachine(soc.Config{Core: soc.BOOM}, cruiser(3))
	defer m.Close()
	cfg := DefaultConfig()
	cfg.MaxSimSeconds = 5
	cfg.StopOnMissionComplete = false
	sy, err := New(sim, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sy.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Equation 1: env frames and SoC cycles advance by the same simulated
	// time. 5 s at 1 GHz with ~16.7M-cycle quanta.
	if math.Abs(res.SimSeconds-5) > 0.02 {
		t.Errorf("sim seconds = %v", res.SimSeconds)
	}
	if math.Abs(float64(res.Cycles)-5e9) > 5e7 {
		t.Errorf("cycles = %d, want ~5e9", res.Cycles)
	}
	tm, _ := sim.Telemetry()
	if math.Abs(tm.TimeSec-res.SimSeconds) > 0.02 {
		t.Errorf("env time %v vs sync time %v", tm.TimeSec, res.SimSeconds)
	}
	// The vehicle must have flown forward (the CmdVel reached the env).
	if tm.Pos.X < 5 {
		t.Errorf("vehicle did not move: %v", tm.Pos)
	}
	if res.Syncs == 0 || res.SoC.Cycles == 0 {
		t.Errorf("missing bookkeeping: %+v", res)
	}
}

func TestDataPathRoundTrip(t *testing.T) {
	// The program requests depth; the synchronizer must serve it from the
	// environment within one quantum.
	sim := newEnv(t)
	depths := make(chan float64, 64)
	prog := func(rt *soc.Runtime) error {
		rt.Send(packet.Cmd{VForward: 0}.Marshal())
		for {
			rt.Send(packet.Packet{Type: packet.DepthReq})
			d, err := packet.UnmarshalDepth(rt.Recv())
			if err != nil {
				return err
			}
			select {
			case depths <- d.Meters:
			default:
			}
			rt.Compute(50_000_000)
		}
	}
	m := soc.NewMachine(soc.Config{Core: soc.BOOM}, prog)
	defer m.Close()
	cfg := DefaultConfig()
	cfg.MaxSimSeconds = 2
	cfg.StopOnMissionComplete = false
	sy, _ := New(sim, m, cfg)
	if _, err := sy.Run(); err != nil {
		t.Fatal(err)
	}
	if len(depths) == 0 {
		t.Fatal("no depth readings delivered")
	}
	d := <-depths
	if d <= 0 || d > 60 {
		t.Errorf("depth = %v", d)
	}
}

func TestStopsOnMissionComplete(t *testing.T) {
	sim := newEnv(t)
	m := soc.NewMachine(soc.Config{Core: soc.BOOM}, cruiser(10))
	defer m.Close()
	cfg := DefaultConfig()
	cfg.MaxSimSeconds = 60
	sy, _ := New(sim, m, cfg)
	res, err := sy.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("mission never completed")
	}
	if res.MissionTimeSec >= 30 {
		t.Errorf("mission time = %v, should stop well before budget", res.MissionTimeSec)
	}
}

func TestProgramExitIsAnError(t *testing.T) {
	sim := newEnv(t)
	m := soc.NewMachine(soc.Config{Core: soc.BOOM}, func(rt *soc.Runtime) error {
		rt.Compute(1_000)
		return nil
	})
	defer m.Close()
	sy, _ := New(sim, m, DefaultConfig())
	if _, err := sy.Run(); err == nil || !strings.Contains(err.Error(), "exited") {
		t.Errorf("err = %v, want program-exit error", err)
	}
}

func TestSynchronizationLatencyGrowsWithGranularity(t *testing.T) {
	// Figure 16's mechanism: a request issued mid-quantum is answered at
	// the next boundary, so measured request→response latency rounds up
	// to the synchronization period.
	latency := func(syncCycles uint64) float64 {
		sim := newEnv(t)
		out := make(chan uint64, 1)
		prog := func(rt *soc.Runtime) error {
			rt.Compute(1_000) // mid-quantum
			start := rt.Now()
			rt.Send(packet.Packet{Type: packet.DepthReq})
			rt.Recv()
			select {
			case out <- rt.Now() - start:
			default:
			}
			for {
				rt.Compute(1 << 30)
			}
		}
		m := soc.NewMachine(soc.Config{Core: soc.BOOM}, prog)
		defer m.Close()
		cfg := DefaultConfig()
		cfg.SyncCycles = syncCycles
		cfg.MaxSimSeconds = 3
		cfg.StopOnMissionComplete = false
		sy, _ := New(sim, m, cfg)
		if _, err := sy.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(<-out)
	}
	fine := latency(1_000_000)
	coarse := latency(100_000_000)
	if coarse < 10*fine {
		t.Errorf("latency fine=%v coarse=%v; coarse should be ~100x", fine, coarse)
	}
	if coarse < 90e6 {
		t.Errorf("coarse latency %v should round up to the 100M-cycle quantum", coarse)
	}
}

func TestDeterministicMissions(t *testing.T) {
	run := func() (uint64, int, float64) {
		sim := newEnv(t)
		m := soc.NewMachine(soc.Config{Core: soc.BOOM}, cruiser(4))
		defer m.Close()
		cfg := DefaultConfig()
		cfg.MaxSimSeconds = 8
		sy, _ := New(sim, m, cfg)
		res, err := sy.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles, res.Collisions, res.AvgVelocity
	}
	c1, n1, v1 := run()
	c2, n2, v2 := run()
	if c1 != c2 || n1 != n2 || v1 != v2 {
		t.Errorf("non-deterministic: (%d,%d,%v) vs (%d,%d,%v)", c1, n1, v1, c2, n2, v2)
	}
}

func TestModeledThroughput(t *testing.T) {
	// Coarse granularity approaches the FPGA rate; fine granularity is
	// dominated by the per-sync overhead.
	fine := ModeledThroughput(1_000, 90, 250e-6)
	mid := ModeledThroughput(10_000_000, 90, 250e-6)
	coarse := ModeledThroughput(400_000_000, 90, 250e-6)
	if coarse < 85 || coarse > 90 {
		t.Errorf("coarse throughput = %v, want ~90 MHz", coarse)
	}
	if fine > 5 {
		t.Errorf("fine throughput = %v, should collapse under sync overhead", fine)
	}
	if !(fine < mid && mid < coarse) {
		t.Errorf("throughput not monotone: %v %v %v", fine, mid, coarse)
	}
	if ModeledThroughput(0, 90, 1e-4) != 0 || ModeledThroughput(100, 0, 1e-4) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

func TestResultThroughputMHz(t *testing.T) {
	r := &Result{Cycles: 2_000_000, WallSeconds: 1}
	if r.ThroughputMHz() != 2 {
		t.Errorf("throughput = %v", r.ThroughputMHz())
	}
	r.WallSeconds = 0
	if r.ThroughputMHz() != 0 {
		t.Error("zero wall time should yield 0")
	}
}

func TestExchangeEveryNAddsStaleness(t *testing.T) {
	// With exchange every 8 quanta, a request waits up to 8 quanta for
	// service instead of 1.
	latency := func(every int) float64 {
		sim := newEnv(t)
		out := make(chan uint64, 1)
		prog := func(rt *soc.Runtime) error {
			rt.Compute(1_000)
			start := rt.Now()
			rt.Send(packet.Packet{Type: packet.DepthReq})
			rt.Recv()
			select {
			case out <- rt.Now() - start:
			default:
			}
			for {
				rt.Compute(1 << 30)
			}
		}
		m := soc.NewMachine(soc.Config{Core: soc.BOOM}, prog)
		defer m.Close()
		cfg := DefaultConfig()
		cfg.SyncCycles = 10_000_000
		cfg.MaxSimSeconds = 2
		cfg.StopOnMissionComplete = false
		cfg.ExchangeEveryN = every
		sy, _ := New(sim, m, cfg)
		if _, err := sy.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(<-out)
	}
	strict := latency(1)
	loose := latency(8)
	if loose < 4*strict {
		t.Errorf("loose exchange latency %v should be several times strict %v", loose, strict)
	}
}
