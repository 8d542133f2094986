package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/soc"
)

// runnerRTL is an RTL with every optional view the synchronizer uses:
// soc.Machine and soc.RemoteRTL.
type runnerRTL interface {
	RTL
	RunRTL
	EnergyRTL
}

// singleStepRTL hides an RTL's StepRun, keeping its energy view: the
// synchronizer steps every quantum through it alone, the reference a run
// must reproduce.
type singleStepRTL struct {
	RTL
	EnergyRTL
}

// countingRTL counts the StepRun calls it forwards.
type countingRTL struct {
	runnerRTL
	runs int
}

func (c *countingRTL) StepRun(cycles uint64, marks []soc.QuantumMark) (int, error) {
	c.runs++
	return c.runnerRTL.StepRun(cycles, marks)
}

// startRTLServer serves a fresh sensorLooper machine on a loopback port
// and returns a client dialed to it.
func startRTLServer(t *testing.T) *soc.RemoteRTL {
	t.Helper()
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
	return rtl
}

// runCell is one cell of the run exactness matrix.
type runCell struct {
	remote   bool // env and RTL behind loopback TCP servers
	sync     uint64
	every    int // ExchangeEveryN
	overlap  OverlapMode
	chunk    int // quanta per StepQuanta call (0: one call to completion)
	simSec   float64
	hideRuns bool
}

// fly flies sensorLooper over the cell's topology and returns the result
// and the number of StepRun calls the synchronizer made.
func (c runCell) fly(t *testing.T) (*Result, int) {
	t.Helper()
	var e env.Env
	var r runnerRTL
	if c.remote {
		e, r = startEnvServer(t), startRTLServer(t)
	} else {
		m := soc.NewMachine(soc.Config{Core: soc.BOOM}, sensorLooper(3))
		t.Cleanup(m.Close)
		e, r = newEnv(t), m
	}
	counted := &countingRTL{runnerRTL: r}
	var rtl RTL = counted
	if c.hideRuns {
		rtl = singleStepRTL{RTL: r, EnergyRTL: r}
	}
	cfg := DefaultConfig()
	cfg.SyncCycles = c.sync
	cfg.MaxSimSeconds = c.simSec
	cfg.StopOnMissionComplete = false
	cfg.ExchangeEveryN = c.every
	cfg.Overlap = c.overlap
	cfg.RecordFingerprints = true
	sy, err := New(e, rtl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sy.Start(); err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		if done, err = sy.StepQuanta(c.chunk); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sy.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res, counted.runs
}

// TestRunMatchesSingleSteps flies each cell twice, granting frame-less
// quanta in runs (RunRTL) and one quantum at a time through a wrapper that
// hides StepRun, and requires the same mission: fingerprint chain,
// trajectory bytes, SoC stats and energy. The matrix crosses in-process
// and loopback-TCP simulators, 10k, 1M and 16.7M cycles per quantum,
// ExchangeEveryN 1 and 3, overlapped and serial, and StepQuanta chunks of
// 1, 7 and the whole flight. Every cell that can take a run (a quantum
// due no frame, chunks above 1) must have taken one.
func TestRunMatchesSingleSteps(t *testing.T) {
	for _, remote := range []bool{false, true} {
		for _, g := range []struct {
			sync   uint64
			simSec float64
		}{{10_000, 0.05}, {1_000_000, 1}, {DefaultConfig().SyncCycles, 2}} {
			for _, every := range []int{1, 3} {
				for _, overlap := range []OverlapMode{OverlapOn, OverlapOff} {
					for _, chunk := range []int{1, 7, 0} {
						c := runCell{remote: remote, sync: g.sync, every: every, overlap: overlap, chunk: chunk, simSec: g.simSec}
						where := "local"
						if remote {
							where = "tcp"
						}
						mode := "overlapped"
						if overlap == OverlapOff {
							mode = "serial"
						}
						t.Run(fmt.Sprintf("%s/sync=%d/every=%d/%s/chunk=%d", where, g.sync, every, mode, chunk), func(t *testing.T) {
							runs, n := c.fly(t)
							c.hideRuns = true
							single, _ := c.fly(t)
							assertSameMission(t, single, runs, "single steps vs runs")
							if canRun := g.sync < DefaultConfig().SyncCycles && chunk != 1; canRun != (n > 0) {
								t.Errorf("%d StepRun calls over %d quanta; want them exactly when a run can be taken (%v)", n, runs.Syncs, canRun)
							}
						})
					}
				}
			}
		}
	}
}

// missionDone is an environment that reports its mission complete from the
// first telemetry sample on.
type missionDone struct{ env.Env }

func (m missionDone) Telemetry() (env.Telemetry, error) {
	tm, err := m.Env.Telemetry()
	tm.MissionComplete = true
	return tm, err
}

// TestRunStopsAtMissionComplete: when the telemetry a run samples first
// already completes the mission, the run is cut to that one quantum, so
// the RTL is not stepped past the quantum the mission stops at. The
// program sends nothing, so only the cut ends the run.
func TestRunStopsAtMissionComplete(t *testing.T) {
	fly := func(hide bool) *Result {
		m := soc.NewMachine(soc.Config{Core: soc.BOOM}, func(rt *soc.Runtime) error {
			for {
				rt.Compute(1_000_000)
			}
		})
		defer m.Close()
		var rtl RTL = m
		if hide {
			rtl = singleStepRTL{RTL: m, EnergyRTL: m}
		}
		cfg := DefaultConfig()
		cfg.SyncCycles = 10_000
		cfg.MaxSimSeconds = 1
		sy, err := New(missionDone{newEnv(t)}, rtl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sy.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	runs, single := fly(false), fly(true)
	if runs.Syncs != 1 || !runs.Completed {
		t.Errorf("mission complete at quantum 0 flew %d quanta (completed %v), want 1", runs.Syncs, runs.Completed)
	}
	assertSameMission(t, single, runs, "single steps vs runs")
}

// TestRunProgramExit: a program that exits inside a run is reported at the
// quantum it exited in, as a single step reports it, with the same
// fingerprint chain up to there.
func TestRunProgramExit(t *testing.T) {
	fly := func(hide bool) State {
		m := soc.NewMachine(soc.Config{Core: soc.BOOM}, func(rt *soc.Runtime) error {
			rt.Compute(123_456)
			return nil
		})
		defer m.Close()
		var rtl RTL = m
		if hide {
			rtl = singleStepRTL{RTL: m, EnergyRTL: m}
		}
		cfg := DefaultConfig()
		cfg.SyncCycles = 10_000
		cfg.MaxSimSeconds = 1
		sy, err := New(newEnv(t), rtl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sy.Start(); err != nil {
			t.Fatal(err)
		}
		defer sy.Finish()
		if _, err := sy.StepQuanta(0); err == nil || !strings.Contains(err.Error(), "exited") {
			t.Fatalf("err = %v, want the program-exit error", err)
		}
		return sy.SnapState()
	}
	runs, single := fly(false), fly(true)
	if runs.Syncs != single.Syncs || runs.Fingerprint != single.Fingerprint {
		t.Errorf("runs stopped after %d quanta (fingerprint %016x), single steps after %d (%016x)",
			runs.Syncs, runs.Fingerprint, single.Syncs, single.Fingerprint)
	}
	if single.Syncs != 13 {
		t.Errorf("the program exited in quantum %d, want 13 (123,456 cycles at 10k per quantum)", single.Syncs)
	}
}

// TestRunRecordsEachQuantum: the flight recorder's record of every quantum
// carries that quantum's cycle, inside a run as after a single step, with
// the RTL in process or remote.
func TestRunRecordsEachQuantum(t *testing.T) {
	const sync = 1_000_000
	for _, remote := range []bool{false, true} {
		suite := obs.New(0)
		var rtl RTL
		if remote {
			rtl = startRTLServer(t)
		} else {
			m := soc.NewMachine(soc.Config{Core: soc.BOOM, Obs: suite.SoC}, sensorLooper(3))
			t.Cleanup(m.Close)
			rtl = m
		}
		cfg := DefaultConfig()
		cfg.SyncCycles = sync
		cfg.MaxSimSeconds = 0.1
		cfg.StopOnMissionComplete = false
		cfg.Obs = suite.Core
		sy, err := New(newEnv(t), rtl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sy.Run()
		if err != nil {
			t.Fatal(err)
		}
		var dump bytes.Buffer
		if err := suite.Recorder.DumpTo(&dump, "test"); err != nil {
			t.Fatal(err)
		}
		var bb struct {
			Quanta []obs.QuantumRecord `json:"quanta"`
		}
		if err := json.Unmarshal(dump.Bytes(), &bb); err != nil {
			t.Fatal(err)
		}
		if uint64(len(bb.Quanta)) != res.Syncs {
			t.Fatalf("remote=%v: %d records for %d quanta", remote, len(bb.Quanta), res.Syncs)
		}
		for i, q := range bb.Quanta {
			if want := uint64(i+1) * sync; q.Cycles != want {
				t.Errorf("remote=%v: quantum %d's record says cycle %d, want %d", remote, i, q.Cycles, want)
			}
		}
	}
}
