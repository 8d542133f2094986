package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/env"
	"repro/internal/packet"
	"repro/internal/soc"
	"repro/internal/world"
)

// sensorLooper is a target program exercising the full serve surface every
// iteration: actuation plus a contiguous run of all three sensor requests
// (the shape the batched remote path collapses into one round-trip).
func sensorLooper(v float64) soc.Program {
	return func(rt *soc.Runtime) error {
		rt.Send(packet.Cmd{VForward: v}.Marshal())
		for {
			rt.Send(packet.Packet{Type: packet.DepthReq})
			rt.Send(packet.Packet{Type: packet.CamReq})
			rt.Send(packet.Packet{Type: packet.IMUReq})
			rt.Recv()
			rt.Recv()
			rt.Recv()
			rt.Compute(8_000_000)
		}
	}
}

// trajectoryBytes flattens a trajectory through the telemetry wire codec,
// so equality means byte-for-byte identical floating-point state.
func trajectoryBytes(traj []env.Telemetry) []byte {
	var b []byte
	for _, tm := range traj {
		b = env.AppendTelemetry(b, tm)
	}
	return b
}

// granularities are the parity cells' cycles per quantum: the default
// 60 Hz quantum, which steps one frame every quantum, and two finer ones
// where most quanta step no frame (1M cycles: one frame in 16–17 quanta;
// 100k: one in 166–167).
var granularities = []uint64{DefaultConfig().SyncCycles, 1_000_000, 100_000}

func runMission(t *testing.T, e env.Env, overlap OverlapMode) *Result {
	t.Helper()
	return runMissionAt(t, e, nil, overlap, DefaultConfig().SyncCycles)
}

// runMissionAt flies the parity mission, 3 simulated seconds of
// sensorLooper with the fingerprint chain recorded, against e and rtl at
// syncCycles per quantum. A nil rtl is a fresh in-process machine.
func runMissionAt(t *testing.T, e env.Env, rtl RTL, overlap OverlapMode, syncCycles uint64) *Result {
	t.Helper()
	if rtl == nil {
		m := soc.NewMachine(soc.Config{Core: soc.BOOM}, sensorLooper(3))
		defer m.Close()
		rtl = m
	}
	cfg := DefaultConfig()
	cfg.SyncCycles = syncCycles
	cfg.MaxSimSeconds = 3
	cfg.StopOnMissionComplete = false
	cfg.Overlap = overlap
	cfg.RecordFingerprints = true
	sy, err := New(e, rtl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sy.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameMission(t *testing.T, a, b *Result, what string) {
	t.Helper()
	if a.Cycles != b.Cycles || a.Syncs != b.Syncs {
		t.Errorf("%s: cycles/syncs (%d,%d) vs (%d,%d)", what, a.Cycles, a.Syncs, b.Cycles, b.Syncs)
	}
	if a.Completed != b.Completed || a.Collisions != b.Collisions {
		t.Errorf("%s: completed/collisions (%v,%d) vs (%v,%d)",
			what, a.Completed, a.Collisions, b.Completed, b.Collisions)
	}
	if a.AvgVelocity != b.AvgVelocity || a.SimSeconds != b.SimSeconds || a.MissionTimeSec != b.MissionTimeSec {
		t.Errorf("%s: velocity/time (%v,%v,%v) vs (%v,%v,%v)", what,
			a.AvgVelocity, a.SimSeconds, a.MissionTimeSec,
			b.AvgVelocity, b.SimSeconds, b.MissionTimeSec)
	}
	if a.SoC != b.SoC {
		t.Errorf("%s: SoC stats %+v vs %+v", what, a.SoC, b.SoC)
	}
	if a.HasEnergy != b.HasEnergy || a.Energy != b.Energy {
		t.Errorf("%s: energy (%v) %+v vs (%v) %+v", what, a.HasEnergy, a.Energy, b.HasEnergy, b.Energy)
	}
	if a.Fingerprint != b.Fingerprint || !slices.Equal(a.Fingerprints, b.Fingerprints) {
		t.Errorf("%s: fingerprint %016x vs %016x (chains of %d and %d quanta)",
			what, a.Fingerprint, b.Fingerprint, len(a.Fingerprints), len(b.Fingerprints))
	}
	if len(a.Trajectory) != len(b.Trajectory) {
		t.Fatalf("%s: trajectory length %d vs %d", what, len(a.Trajectory), len(b.Trajectory))
	}
	if !bytes.Equal(trajectoryBytes(a.Trajectory), trajectoryBytes(b.Trajectory)) {
		t.Errorf("%s: trajectories differ byte-wise", what)
	}
}

// TestOverlapParity proves the tentpole invariant: because data crosses
// only at quantum boundaries, overlapped execution is byte-identical to
// the serial reference — same cycles, stats, energy, fingerprint chain and
// trajectory bytes — at every granularity, the finer ones running mostly
// quanta that step no frame.
func TestOverlapParity(t *testing.T) {
	for _, g := range granularities {
		t.Run(fmt.Sprintf("sync=%d", g), func(t *testing.T) {
			serial := runMissionAt(t, newEnv(t), nil, OverlapOff, g)
			overlapped := runMissionAt(t, newEnv(t), nil, OverlapOn, g)
			assertSameMission(t, serial, overlapped, "serial vs overlapped")
		})
	}
}

// startEnvServer serves a fresh tunnel simulator on a loopback port and
// returns a client dialed to it.
func startEnvServer(t *testing.T) *env.Client {
	t.Helper()
	sim, err := env.New(env.DefaultConfig(world.Tunnel()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := env.NewServer(sim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	go srv.Serve()
	client, err := env.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestRemoteLoopbackMatchesLocal drives core.Run end-to-end through
// env.Client→env.Server over a loopback TCP connection — pipelined acks,
// batched sensor fetches, overlapped stepping, and at the finer
// granularities the client's cached telemetry on quanta that step no
// frame — and requires the result to be byte-identical to the same
// mission against the in-process simulator. scripts/check.sh runs it
// under -race, which also validates the client/worker and server locking.
func TestRemoteLoopbackMatchesLocal(t *testing.T) {
	for _, g := range granularities {
		t.Run(fmt.Sprintf("sync=%d", g), func(t *testing.T) {
			local := runMissionAt(t, newEnv(t), nil, OverlapOn, g)
			remote := runMissionAt(t, startEnvServer(t), nil, OverlapOn, g)
			assertSameMission(t, local, remote, "local vs remote loopback")
		})
	}
}

// TestBothRemoteLoopbackMatchesLocal flies the mission with both
// simulators behind loopback TCP servers — env.Client and soc.RemoteRTL,
// the Table 4 topology — at 1 ms quanta, where most quanta step no frame
// and leave the SoC's TX queue empty, so they cost the RTL step alone,
// while sensorLooper's requests put packets on others. Fingerprint chain,
// trajectory bytes, SoC stats and energy must equal the in-process
// mission's, overlapped and serial.
func TestBothRemoteLoopbackMatchesLocal(t *testing.T) {
	const g = 1_000_000
	for name, overlap := range map[string]OverlapMode{"overlapped": OverlapOn, "serial": OverlapOff} {
		t.Run(name, func(t *testing.T) {
			local := runMissionAt(t, newEnv(t), nil, overlap, g)

			m := soc.NewMachine(soc.Config{Core: soc.BOOM}, sensorLooper(3))
			t.Cleanup(m.Close)
			srv, err := soc.NewServer(m, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			go srv.Serve()
			rtl, err := soc.DialRTL(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rtl.Close() })

			remote := runMissionAt(t, startEnvServer(t), rtl, overlap, g)
			assertSameMission(t, local, remote, "local vs both remote")
			if local.SoC.PacketsOut == 0 {
				t.Fatal("the mission put no packet on the bridge")
			}
		})
	}
}
