package app

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/gemmini"
	"repro/internal/ort"
	"repro/internal/packet"
	"repro/internal/soc"
)

var restoreCfg = soc.Config{Core: soc.BOOM, Gemmini: true}

// restoreCtrl flies at 9 m/s, so hostHarness's 3 m depth puts the dynamic
// runtime inside its deadline and its fallback network engages.
func restoreCtrl() ControlParams {
	ctrl := DefaultControlParams(9)
	ctrl.WarmupSec = 0.01
	return ctrl
}

// capture flies a resumable controller's machine for the given quanta of the
// host harness at 3 m depth and captures it.
func capture(t testing.TB, sp soc.StateProgram, quanta int) *soc.SnapState {
	t.Helper()
	m := soc.NewStateMachine(restoreCfg, sp)
	defer m.Close()
	hostHarness(t, m, quanta, 3)
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
	st := capture(t, NewStaticLoop(sess, restoreCtrl(), &Log{}), 20)
	st.App = gobBytes(t, loopBlob{PC: pcCharge, ChargeIdx: -1})
	m, err := soc.RestoreMachine(restoreCfg, NewStaticLoop(sess, restoreCtrl(), &Log{}), st)
	if err == nil {
		m.Close()
		t.Fatal("restored a static loop with charge index -1")
	}
	if !strings.Contains(err.Error(), "charge index -1") {
		t.Errorf("error %q does not name the charge index", err)
	}

	dl := NewDynamicLoop(sess, sess, restoreCtrl(), DefaultDynamicParams(), nil)
	if err := dl.RestoreState(gobBytes(t, loopBlob{PC: pcCharge, ChargeIdx: -1})); err == nil {
		t.Error("dynamic loop accepted charge index -1")
	}
}

// A static loop has no fallback network: a blob that selects one, or that
// parks in a depth state, fails closed in RestoreState. Accepted, the
// fallback selection made Run resume with a nil session and panic on the
// goroutine that stepped the restored machine.
func TestStaticLoopRejectsFallbackBlob(t *testing.T) {
	sess := untrainedSession(t, "ResNet6")
	st := capture(t, NewStaticLoop(sess, restoreCtrl(), &Log{}), 20)
	st.App = gobBytes(t, loopBlob{PC: pcCharge, UseSmall: true})
	m, err := soc.RestoreMachine(restoreCfg, NewStaticLoop(sess, restoreCtrl(), &Log{}), st)
	if err == nil {
		m.Close()
		t.Fatal("restored a static loop with the fallback network selected")
	}
	if !strings.Contains(err.Error(), "fallback") {
		t.Errorf("error %q does not name the fallback network", err)
	}

	for _, b := range []loopBlob{{PC: pcCharge, UseSmall: true}, {PC: pcSendDepthReq}, {PC: pcRecvDepth}, {PC: pcOverhead}} {
		if err := NewStaticLoop(sess, restoreCtrl(), nil).RestoreState(gobBytes(t, b)); err == nil {
			t.Errorf("static loop accepted %+v", b)
		}
		dl := NewDynamicLoop(sess, sess, restoreCtrl(), DefaultDynamicParams(), nil)
		if err := dl.RestoreState(gobBytes(t, b)); err != nil {
			t.Errorf("dynamic loop rejected %+v: %v", b, err)
		}
	}
}

// A camera frame smaller than the network's input ends the program with an
// error instead of panicking in the backbone's pooling. With its fallback
// engaged, the dynamic loop checks the frame against the small network.
func TestStaticLoopRejectsSmallFrame(t *testing.T) {
	ctrl := restoreCtrl()
	ctrl.WarmupSec = 0
	big, small := untrainedSession(t, "ResNet14"), untrainedSession(t, "ResNet6")
	frame, err := packet.CamFrame{W: 2, H: 2, Pix: make([]byte, 4)}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		loop *ControlLoop
		in   []packet.Packet
	}{
		{"static", NewStaticLoop(small, ctrl, nil), []packet.Packet{frame}},
		{"dynamic", NewDynamicLoop(big, small, ctrl, DefaultDynamicParams(), nil),
			[]packet.Packet{packet.Depth{Meters: 3}.Marshal(), frame}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := soc.NewStateMachine(restoreCfg, tc.loop)
			defer m.Close()
			if err := m.Push(tc.in); err != nil {
				t.Fatal(err)
			}
			m.Step(16_666_667)
			if !m.Done() || m.Err() == nil || !strings.Contains(m.Err().Error(), "smaller than ResNet6's 64x48 input") {
				t.Fatalf("done=%v err=%v, want the frame rejected", m.Done(), m.Err())
			}
		})
	}
}

// A camera frame larger than the network's input is flown as it is: the
// backbone is fully convolutional and pools to a fixed grid, so a 128×96
// frame (rose-env-server -cam-w 128 -cam-h 96) runs an inference on either
// datapath.
func TestStaticLoopFliesLargerFrame(t *testing.T) {
	ctrl := restoreCtrl()
	ctrl.WarmupSec = 0
	frame, err := packet.CamFrame{W: 128, H: 96, Pix: bytes.Repeat([]byte{7, 200, 90}, 128*96/3)}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range []dnn.Precision{dnn.PrecisionFP32, dnn.PrecisionInt8} {
		t.Run(prec.String(), func(t *testing.T) {
			sess, err := ort.NewSessionP(dnn.MustBuild("ResNet6", 3), gemmini.Default(), prec)
			if err != nil {
				t.Fatal(err)
			}
			log := &Log{}
			m := soc.NewStateMachine(restoreCfg, NewStaticLoop(sess, ctrl, log))
			defer m.Close()
			if err := m.Push([]packet.Packet{frame}); err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 60 && m.Err() == nil && len(log.Records()) == 0; q++ {
				m.Step(16_666_667)
			}
			if m.Err() != nil || len(log.Records()) != 1 {
				t.Fatalf("err=%v after %d inferences, want one inference of the 128x96 frame", m.Err(), len(log.Records()))
			}
		})
	}
}

// FuzzRestoreMachine drives arbitrary bytes down the path a remote RTL
// server's RTLRestore request takes: gob-decode a soc.SnapState, restore
// every resumable controller's machine from it — the static and dynamic
// ControlLoop and the ScriptedLoop — then step each as RTLStep requests
// would. Every input must end in an error or in a machine that steps; none
// may panic.
func FuzzRestoreMachine(f *testing.F) {
	big, small := untrainedSession(f, "ResNet14"), untrainedSession(f, "ResNet6")
	script := DefaultScriptParams()
	script.WarmupSec = 0.01
	loops := []func() soc.StateProgram{
		func() soc.StateProgram { return NewStaticLoop(small, restoreCtrl(), &Log{}) },
		func() soc.StateProgram {
			return NewDynamicLoop(big, small, restoreCtrl(), DefaultDynamicParams(), &Log{})
		},
		func() soc.StateProgram { return NewScriptedLoop(patrol(), script, &Log{}) },
	}
	// Real captures of each: parked mid-bill, in a receive, and between
	// requests. At 3 m depth the dynamic loop runs its fallback network.
	for _, newLoop := range loops {
		for _, quanta := range []int{3, 20, 41} {
			f.Add(gobBytes(f, capture(f, newLoop(), quanta)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st soc.SnapState
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			return
		}
		for _, newLoop := range loops {
			m, err := soc.RestoreMachine(restoreCfg, newLoop(), &st)
			if err != nil {
				continue
			}
			for i := 0; i < 3; i++ {
				if _, err := m.Step(16_666_667); err != nil {
					t.Fatalf("quantum %d: %v", i, err)
				}
				if _, err := m.Pull(); err != nil {
					t.Fatalf("quantum %d: %v", i, err)
				}
			}
			m.Close()
		}
	})
}
