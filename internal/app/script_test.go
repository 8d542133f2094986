package app

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/soc"
)

func patrol() []scenario.ScriptLeg {
	return []scenario.ScriptLeg{
		{DurSec: 1.0, VForward: 1.2, HoldDepthM: 2.0},
		{DurSec: 0.5, YawRate: 0.4},
	}
}

func TestScriptedLoopFliesScript(t *testing.T) {
	log := &Log{}
	p := DefaultScriptParams()
	p.WarmupSec = 0.01
	m := soc.NewStateMachine(soc.Config{Core: soc.Rocket}, NewScriptedLoop(patrol(), p, log))
	defer m.Close()
	hostHarness(t, m, 240, 30)
	recs := log.Records()
	if len(recs) < 10 {
		t.Fatalf("only %d script iterations in 4 s", len(recs))
	}
	sawForward, sawYaw := false, false
	for _, r := range recs {
		if r.Model != "script" {
			t.Fatalf("model = %q", r.Model)
		}
		if r.DepthMeters != 30 {
			t.Fatalf("depth not logged: %v", r.DepthMeters)
		}
		switch {
		case r.Cmd.VForward == 1.2 && r.Cmd.YawRate == 0:
			sawForward = true
		case r.Cmd.VForward == 0 && r.Cmd.YawRate == 0.4:
			sawYaw = true
		}
	}
	if !sawForward || !sawYaw {
		t.Fatalf("script legs not cycled: forward=%v yaw=%v", sawForward, sawYaw)
	}
	if m.Stats().ComputeCycles == 0 {
		t.Error("planner cycles not charged")
	}
}

func TestScriptedLoopDepthHoldReflex(t *testing.T) {
	log := &Log{}
	p := DefaultScriptParams()
	p.WarmupSec = 0.01
	m := soc.NewStateMachine(soc.Config{Core: soc.Rocket}, NewScriptedLoop(patrol(), p, log))
	defer m.Close()
	hostHarness(t, m, 120, 1.0) // obstacle inside the hold distance
	for _, r := range log.Records() {
		if r.Cmd.VForward != 0 {
			t.Fatalf("reflex failed to zero forward velocity: %+v", r.Cmd)
		}
	}
}

func TestScriptCommand(t *testing.T) {
	s := patrol()
	if c := scriptCommand(s, 0.2, 30); c.VForward != 1.2 || c.YawRate != 0 {
		t.Errorf("leg 0 cmd = %+v", c)
	}
	if c := scriptCommand(s, 1.2, 30); c.YawRate != 0.4 || c.VForward != 0 {
		t.Errorf("leg 1 cmd = %+v", c)
	}
	if c := scriptCommand(s, 1.7, 30); c.VForward != 1.2 { // cycled back
		t.Errorf("cycled cmd = %+v", c)
	}
	if c := scriptCommand(s, 0.2, 1.5); c.VForward != 0 { // reflex
		t.Errorf("reflex cmd = %+v", c)
	}
	if c := scriptCommand(nil, 0.2, 30); c != (packet.Cmd{}) {
		t.Errorf("empty script cmd = %+v", c)
	}
}

func TestScriptedLoopSnapshotRoundTrip(t *testing.T) {
	log := &Log{}
	log.Add(InferenceRecord{Model: "script", LatencySec: 0.01})
	a := NewScriptedLoop(patrol(), DefaultScriptParams(), log)
	a.pc = pcSendCmd
	a.req = 12345
	a.depthM = 7.5
	a.cmd = packet.Cmd{VForward: 1.2}
	blob, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	log2 := &Log{}
	b := NewScriptedLoop(patrol(), DefaultScriptParams(), log2)
	if err := b.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if b.pc != a.pc || b.req != a.req || b.depthM != a.depthM || b.cmd != a.cmd {
		t.Fatalf("restore mismatch: %+v vs %+v", b, a)
	}
	if len(log2.Records()) != 1 || log2.Records()[0].Model != "script" {
		t.Fatal("records not restored")
	}
}
