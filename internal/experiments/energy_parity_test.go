package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestEnergyParity: the energy ledger is as deterministic as the cycle
// counter. One mission run under every deployment cell — {overlap, serial} ×
// {local, TCP-remote RTL} — must produce a byte-identical EnergyBreakdown.
// The reference cell is local+overlap; every other cell is compared to it.
func TestEnergyParity(t *testing.T) {
	spec := paritySpec("tunnel", core.OverlapOn)
	ref := runUninterrupted(t, spec)
	if !ref.Result.HasEnergy {
		t.Fatal("reference mission produced no energy breakdown")
	}
	b := ref.Result.Energy
	// Config A has a Gemmini, so every domain must have accumulated charge:
	// a zero domain means a charging site was missed, not a cheap mission.
	if b.Dynamic.CorePJ == 0 || b.Dynamic.AccelPJ == 0 || b.Dynamic.MemPJ == 0 || b.Static.TotalPJ() == 0 {
		t.Fatalf("energy domain missing charge: %+v", b)
	}

	cells := []struct {
		name    string
		overlap core.OverlapMode
		remote  bool
	}{
		{"local/serial", core.OverlapOff, false},
		{"remote/overlap", core.OverlapOn, true},
		{"remote/serial", core.OverlapOff, true},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			cspec := paritySpec("tunnel", cell.overlap)
			var res *core.Result
			if cell.remote {
				rm := dialRemoteMission(t, cspec, nil)
				var err error
				res, err = rm.sy.Run()
				if err != nil {
					t.Fatalf("remote mission: %v", err)
				}
			} else {
				out, err := RunMission(cspec)
				if err != nil {
					t.Fatalf("local mission: %v", err)
				}
				res = out.Result
			}
			if !res.HasEnergy {
				t.Fatal("mission produced no energy breakdown")
			}
			if res.Energy != b {
				t.Errorf("energy diverges from local/overlap reference:\n  reference %+v\n  %-9s %+v",
					b, cell.name, res.Energy)
			}
		})
	}
}

// TestEnergyOffZeroLedger: the EnergyOff knob fully disables accounting —
// the mission still runs (cycle-identical) but reports no energy.
func TestEnergyOffZeroLedger(t *testing.T) {
	spec := paritySpec("tunnel", core.OverlapOn)
	ref := runUninterrupted(t, spec)

	off := spec
	off.EnergyOff = true
	out, err := RunMission(off)
	if err != nil {
		t.Fatalf("energy-off mission: %v", err)
	}
	if out.Result.HasEnergy || out.Result.Energy.TotalPJ() != 0 {
		t.Errorf("energy-off mission reported energy: %+v (hasEnergy=%v)",
			out.Result.Energy, out.Result.HasEnergy)
	}
	// Accounting must be observation-only: turning it off cannot change what
	// the mission does.
	if out.Result.Cycles != ref.Result.Cycles {
		t.Errorf("energy-off changed timing: %d cycles vs %d", out.Result.Cycles, ref.Result.Cycles)
	}
	if fmt.Sprint(out.Result.Trajectory) != fmt.Sprint(ref.Result.Trajectory) {
		t.Error("energy-off changed the trajectory")
	}
}
