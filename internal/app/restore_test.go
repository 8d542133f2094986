package app

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/ort"
	"repro/internal/packet"
	"repro/internal/soc"
)

var restoreCfg = soc.Config{Core: soc.BOOM, Gemmini: true}

func restoreCtrl() ControlParams {
	ctrl := DefaultControlParams(3)
	ctrl.WarmupSec = 0.01
	return ctrl
}

// captureStatic flies a StaticLoop machine for the given quanta of the host
// harness and captures it.
func captureStatic(t testing.TB, sess *ort.Session, quanta int) *soc.SnapState {
	t.Helper()
	m := soc.NewStateMachine(restoreCfg, NewStaticLoop(sess, restoreCtrl(), &Log{}))
	defer m.Close()
	hostHarness(t, m, quanta, 30)
	st, err := m.SnapState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A resume blob naming a charge index before the cycle bill fails closed in
// RestoreState; accepted, it made Run index the bill at -1 and the panic
// killed the process.
func TestRestoreRejectsNegativeChargeIndex(t *testing.T) {
	sess := untrainedSession(t, "ResNet6")
	st := captureStatic(t, sess, 20)
	st.App = gobBytes(t, staticBlob{PC: pcCharge, ChargeIdx: -1})
	m, err := soc.RestoreMachine(restoreCfg, NewStaticLoop(sess, restoreCtrl(), &Log{}), st)
	if err == nil {
		m.Close()
		t.Fatal("restored a static loop with charge index -1")
	}
	if !strings.Contains(err.Error(), "charge index -1") {
		t.Errorf("error %q does not name the charge index", err)
	}

	dl := NewDynamicLoop(sess, sess, restoreCtrl(), DefaultDynamicParams(), nil)
	if err := dl.RestoreState(gobBytes(t, dynBlob{PC: pcCharge, ChargeIdx: -1})); err == nil {
		t.Error("dynamic loop accepted charge index -1")
	}
}

// A camera frame smaller than the network's input ends the program with an
// error instead of panicking in the backbone's pooling.
func TestStaticLoopRejectsSmallFrame(t *testing.T) {
	ctrl := restoreCtrl()
	ctrl.WarmupSec = 0
	m := soc.NewMachine(restoreCfg, StaticController(untrainedSession(t, "ResNet6"), ctrl, nil))
	defer m.Close()
	frame, err := packet.CamFrame{W: 2, H: 2, Pix: make([]byte, 4)}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Push([]packet.Packet{frame}); err != nil {
		t.Fatal(err)
	}
	m.Step(16_666_667)
	if !m.Done() || m.Err() == nil || !strings.Contains(m.Err().Error(), "smaller than ResNet6's 64x48 input") {
		t.Fatalf("done=%v err=%v, want the frame rejected", m.Done(), m.Err())
	}
}

// FuzzRestoreMachine drives arbitrary bytes down the path a remote RTL
// server's RTLRestore request takes: gob-decode a soc.SnapState, restore a
// StaticLoop machine from it, then step it as RTLStep requests would. Every
// input must end in an error or in a machine that steps; none may panic.
func FuzzRestoreMachine(f *testing.F) {
	sess := untrainedSession(f, "ResNet6")
	// Real captures: parked mid-bill, in a receive, and between requests.
	for _, quanta := range []int{3, 20, 41} {
		f.Add(gobBytes(f, captureStatic(f, sess, quanta)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st soc.SnapState
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			return
		}
		m, err := soc.RestoreMachine(restoreCfg, NewStaticLoop(sess, restoreCtrl(), &Log{}), &st)
		if err != nil {
			return
		}
		defer m.Close()
		for i := 0; i < 3; i++ {
			if _, err := m.Step(16_666_667); err != nil {
				t.Fatalf("quantum %d: %v", i, err)
			}
			if _, err := m.Pull(); err != nil {
				t.Fatalf("quantum %d: %v", i, err)
			}
		}
	})
}
