package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/snapshot"
	"repro/internal/soc"
	"repro/internal/world"
)

// paritySpec is the mission every snapshot-parity cell runs: short enough
// for the test matrix, long enough to cross the divergence quantum with
// several control-loop iterations on both sides.
func paritySpec(mapName string, overlap core.OverlapMode) MissionSpec {
	return MissionSpec{
		Map: mapName, Model: "ResNet6", HW: config.A,
		VForward:  3,
		Seed:      11,
		MaxSimSec: 3,
		Overlap:   overlap,
	}
}

const parityPrefixQuanta = 100 // of 180 total (3 s at 60 quanta/s)

// runUninterrupted is the reference trajectory: one mission, never
// snapshotted.
func runUninterrupted(t *testing.T, spec MissionSpec) *MissionOutcome {
	t.Helper()
	out, err := RunMission(spec)
	if err != nil {
		t.Fatalf("uninterrupted mission: %v", err)
	}
	return out
}

// captureEncoded runs the prefix, captures, and pushes the image through
// Encode/Decode so every parity cell also exercises the rose-snap/1
// container.
func captureEncoded(t *testing.T, spec MissionSpec) *snapshot.Image {
	t.Helper()
	img, err := CaptureMission(spec, parityPrefixQuanta)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	enc, err := snapshot.Encode(img)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := snapshot.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return dec
}

func checkParity(t *testing.T, ref, got *MissionOutcome) {
	t.Helper()
	if len(got.Result.Trajectory) != len(ref.Result.Trajectory) {
		t.Fatalf("trajectory length %d, uninterrupted %d",
			len(got.Result.Trajectory), len(ref.Result.Trajectory))
	}
	for i := range ref.Result.Trajectory {
		if ref.Result.Trajectory[i] != got.Result.Trajectory[i] {
			t.Fatalf("trajectory diverges at quantum %d:\n  uninterrupted %+v\n  restored      %+v",
				i, ref.Result.Trajectory[i], got.Result.Trajectory[i])
		}
	}
	if got.Result.Collisions != ref.Result.Collisions || got.Result.Completed != ref.Result.Completed {
		t.Errorf("outcome flags differ: collisions %d/%d completed %v/%v",
			got.Result.Collisions, ref.Result.Collisions, got.Result.Completed, ref.Result.Completed)
	}
	// The energy ledger is part of the parity contract: a restored mission's
	// final breakdown must equal the uninterrupted run's, pJ for pJ.
	if got.Result.HasEnergy != ref.Result.HasEnergy || got.Result.Energy != ref.Result.Energy {
		t.Errorf("energy differs:\n  uninterrupted %+v (hasEnergy=%v)\n  restored      %+v (hasEnergy=%v)",
			ref.Result.Energy, ref.Result.HasEnergy, got.Result.Energy, got.Result.HasEnergy)
	}
}

// TestSnapshotParityLocal: snapshot → restore → run must be byte-identical
// to an uninterrupted run, across {tunnel, s-shape} × {overlap, serial},
// with the image passed through the binary container each time.
func TestSnapshotParityLocal(t *testing.T) {
	for _, mapName := range []string{"tunnel", "s-shape"} {
		for _, ov := range []core.OverlapMode{core.OverlapOn, core.OverlapOff} {
			name := fmt.Sprintf("%s/overlap=%v", mapName, ov == core.OverlapOn)
			t.Run(name, func(t *testing.T) {
				spec := paritySpec(mapName, ov)
				ref := runUninterrupted(t, spec)
				img := captureEncoded(t, spec)

				// Restore continues with the mission's own sensor
				// streams: a pure suspend/resume, no variant reseed.
				ms, err := NewMission(spec, nil, img)
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				defer ms.Close()
				got, err := ms.Finish()
				if err != nil {
					t.Fatalf("restored run: %v", err)
				}
				checkParity(t, ref, got)
				if !reflect.DeepEqual(ref.Inferences, got.Inferences) {
					t.Errorf("inference logs differ: %d records vs %d", len(ref.Inferences), len(got.Inferences))
				}
			})
		}
	}
}

// remoteMission wires one mission against a TCP RTL server the way
// examples/tcpdeploy does, with snapshot capture/restore over the wire.
type remoteMission struct {
	srv *soc.Server
	rtl *soc.RemoteRTL
	sim *env.Sim
	sy  *core.Synchronizer
}

func dialRemoteMission(t *testing.T, spec MissionSpec, img *snapshot.Image) *remoteMission {
	t.Helper()
	return dialRemoteMissionWith(t, spec, img, soc.DialOptions{})
}

// dialRemoteMissionWith is dialRemoteMission with explicit transport
// options — the hook the live-divergence test uses to route the RTL link
// through a faultnet dialer.
func dialRemoteMissionWith(t *testing.T, spec MissionSpec, img *snapshot.Image, opts soc.DialOptions) *remoteMission {
	t.Helper()
	spec = spec.withDefaults()
	newMachine := func() (*soc.Machine, error) {
		loop, err := spec.newController(nil, nil)
		if err != nil {
			return nil, err
		}
		return soc.NewStateMachine(spec.socConfig(), loop), nil
	}
	mach, err := newMachine()
	if err != nil {
		t.Fatalf("remote machine: %v", err)
	}
	srv, err := soc.NewServer(mach, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("rtl server: %v", err)
	}
	srv.SetRestorer(func() (soc.Config, soc.StateProgram, error) {
		loop, err := spec.newController(nil, nil)
		return spec.socConfig(), loop, err
	})
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })

	rtl, err := soc.DialRTLWith(srv.Addr(), opts)
	if err != nil {
		t.Fatalf("dial rtl: %v", err)
	}
	t.Cleanup(func() { rtl.Close() })

	sim, err := spec.newSim(world.ByName(spec.Map), nil)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if img != nil {
		sim.RestoreState(img.Env)
		if err := rtl.Restore(&img.SoC); err != nil {
			t.Fatalf("remote restore: %v", err)
		}
	}
	sy, err := core.New(sim, rtl, spec.coreConfig())
	if err != nil {
		t.Fatalf("synchronizer: %v", err)
	}
	if img != nil {
		if err := sy.RestoreState(img.Core); err != nil {
			t.Fatalf("core restore: %v", err)
		}
	}
	return &remoteMission{srv: srv, rtl: rtl, sim: sim, sy: sy}
}

// TestSnapshotParityRemoteRTL: the same parity claim with the SoC behind a
// TCP server — capture ships the machine state to the client, restore ships
// it back and rebuilds the machine server-side.
func TestSnapshotParityRemoteRTL(t *testing.T) {
	for _, mapName := range []string{"tunnel", "s-shape"} {
		t.Run(mapName, func(t *testing.T) {
			spec := paritySpec(mapName, core.OverlapOn)
			ref := runUninterrupted(t, spec)

			// Run the prefix against a remote RTL and capture over the
			// wire.
			rm := dialRemoteMission(t, spec, nil)
			if err := rm.sy.Start(); err != nil {
				t.Fatalf("start: %v", err)
			}
			if done, err := rm.sy.StepQuanta(parityPrefixQuanta); err != nil {
				t.Fatalf("prefix: %v", err)
			} else if done {
				t.Fatal("mission ended before the divergence quantum")
			}
			rawSpec, err := spec.MetaSpec()
			if err != nil {
				t.Fatalf("meta spec: %v", err)
			}
			img, err := snapshot.Capture(rm.sy, rm.sim, rm.rtl, snapshot.Meta{Spec: rawSpec})
			if err != nil {
				t.Fatalf("remote capture: %v", err)
			}
			if _, err := rm.sy.Finish(); err != nil {
				t.Fatalf("finish prefix: %v", err)
			}

			// Round-trip the container, then restore into a second remote
			// deployment and run to completion.
			enc, err := snapshot.Encode(img)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			img, err = snapshot.Decode(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			rm2 := dialRemoteMission(t, spec, img)
			res, err := rm2.sy.Run()
			if err != nil {
				t.Fatalf("restored remote run: %v", err)
			}
			checkParity(t, ref, &MissionOutcome{Spec: spec, Result: res})
		})
	}
}
