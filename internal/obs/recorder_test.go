package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// readBlackbox parses a dump file against the rose-blackbox/2 schema.
func readBlackbox(t *testing.T, path string) blackbox {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bb blackbox
	if err := json.Unmarshal(data, &bb); err != nil {
		t.Fatalf("blackbox is not valid JSON: %v\n%s", err, data)
	}
	if bb.Schema != "rose-blackbox/2" {
		t.Fatalf("schema = %q", bb.Schema)
	}
	return bb
}

// fakeClock is a settable time source for deterministic watchdog tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time           { return c.t }
func (c *fakeClock) advance(d time.Duration)  { c.t = c.t.Add(d) }
func newFakeClock(start time.Time) *fakeClock { return &fakeClock{t: start} }

func TestRecorderWatchdogFakeClock(t *testing.T) {
	s := New(64)
	path := filepath.Join(t.TempDir(), "blackbox.json")
	s.Recorder.SetPath(path)
	clk := newFakeClock(time.Unix(1_700_000_000, 0))
	s.Recorder.SetClock(clk.now)

	// Before any quantum starts, the watchdog must never fire.
	if s.Recorder.CheckStall(time.Second) {
		t.Fatal("stall before first heartbeat")
	}

	// Healthy quanta: heartbeats inside the deadline never fire.
	for seq := uint64(1); seq <= 5; seq++ {
		s.Recorder.Heartbeat(seq)
		s.Core.EndQuantum(clk.now(), 0, TelemetrySample{TimeSec: float64(seq), PosX: float64(seq)})
		clk.advance(100 * time.Millisecond)
		if s.Recorder.CheckStall(time.Second) {
			t.Fatalf("false stall at seq %d", seq)
		}
	}

	// The peer hangs: no heartbeat while the clock runs past the deadline.
	clk.advance(2 * time.Second)
	if !s.Recorder.CheckStall(time.Second) {
		t.Fatal("watchdog did not fire after deadline")
	}
	// Latched: a second sweep of the same stall must not double-dump.
	if s.Recorder.CheckStall(time.Second) {
		t.Fatal("watchdog fired twice for one stall")
	}
	if s.Recorder.Stalls.Value() != 1 || s.Recorder.WatchdogDumps.Value() != 1 {
		t.Errorf("stalls=%d dumps=%d, want 1/1",
			s.Recorder.Stalls.Value(), s.Recorder.WatchdogDumps.Value())
	}

	bb := readBlackbox(t, path)
	if bb.Reason != "watchdog" {
		t.Errorf("reason = %q", bb.Reason)
	}
	if bb.LastSeq != 5 {
		t.Errorf("last_seq = %d, want 5", bb.LastSeq)
	}
	if len(bb.Quanta) != 5 {
		t.Fatalf("%d quantum records, want 5", len(bb.Quanta))
	}
	if bb.Quanta[4].Seq != 0 && bb.Quanta[4].Telemetry.PosX != 5 {
		t.Errorf("newest quantum = %+v", bb.Quanta[4])
	}
	if bb.RunID != s.Run.RunIDHex() {
		t.Errorf("run_id = %q, want %q", bb.RunID, s.Run.RunIDHex())
	}
	if len(bb.Events) == 0 {
		t.Error("dump carries no event-log tail (watchdog error should be logged)")
	}
	if len(bb.Metrics) == 0 {
		t.Error("dump carries no metrics snapshot")
	}

	// Progress clears the latch: the next stall fires again.
	s.Recorder.Heartbeat(6)
	clk.advance(3 * time.Second)
	if !s.Recorder.CheckStall(time.Second) {
		t.Fatal("watchdog did not re-arm after heartbeat")
	}
	if s.Recorder.Stalls.Value() != 2 {
		t.Errorf("stalls = %d, want 2", s.Recorder.Stalls.Value())
	}
}

func TestRecorderDumpOnPanic(t *testing.T) {
	s := New(16)
	path := filepath.Join(t.TempDir(), "bb.json")
	s.Recorder.SetPath(path)
	s.Core.EndQuantum(time.Now(), 0, TelemetrySample{})

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RecoverPanic swallowed the panic")
			}
		}()
		defer func() { s.RecoverPanic(recover()) }()
		panic("kaboom")
	}()

	if s.Recorder.PanicDumps.Value() != 1 {
		t.Errorf("panic dumps = %d", s.Recorder.PanicDumps.Value())
	}
	bb := readBlackbox(t, path)
	if bb.Reason != "panic: kaboom" {
		t.Errorf("reason = %q", bb.Reason)
	}
	if bb.Stack == "" {
		t.Error("panic dump missing stack")
	}
	if len(bb.Quanta) != 1 {
		t.Errorf("%d quanta", len(bb.Quanta))
	}

	// RecoverPanic on a clean exit (nil) must be a no-op.
	func() {
		defer func() { s.RecoverPanic(recover()) }()
	}()
	if s.Recorder.PanicDumps.Value() != 1 {
		t.Error("nil recover dumped")
	}
	// And a nil suite must just re-panic.
	var nilSuite *Suite
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil suite swallowed the panic")
			}
		}()
		defer func() { nilSuite.RecoverPanic(recover()) }()
		panic("x")
	}()
}

func TestRecorderFaultAndRingWrap(t *testing.T) {
	s := New(0)
	path := filepath.Join(t.TempDir(), "bb.json")
	s.Recorder.SetPath(path)
	// Overfill the quantum ring: the dump must keep the newest
	// DefaultBlackboxQuanta records, oldest first.
	for seq := uint64(1); seq <= DefaultBlackboxQuanta+20; seq++ {
		s.Recorder.Heartbeat(seq)
		s.Recorder.Record(QuantumRecord{Seq: seq})
	}
	s.Core.Fault("non-finite telemetry state")
	if s.Recorder.FaultDumps.Value() != 1 {
		t.Errorf("fault dumps = %d", s.Recorder.FaultDumps.Value())
	}
	bb := readBlackbox(t, path)
	if bb.Reason != "fault: non-finite telemetry state" {
		t.Errorf("reason = %q", bb.Reason)
	}
	if len(bb.Quanta) != DefaultBlackboxQuanta {
		t.Fatalf("%d quanta, want %d", len(bb.Quanta), DefaultBlackboxQuanta)
	}
	if bb.Quanta[0].Seq != 21 || bb.Quanta[len(bb.Quanta)-1].Seq != DefaultBlackboxQuanta+20 {
		t.Errorf("quantum window = %d..%d", bb.Quanta[0].Seq, bb.Quanta[len(bb.Quanta)-1].Seq)
	}
}

func TestRecorderDumpToAndNil(t *testing.T) {
	var buf bytes.Buffer
	var nilRec *Recorder
	if err := nilRec.DumpTo(&buf, "manual"); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "{}\n" {
		t.Errorf("nil dump = %q", buf.String())
	}
	nilRec.Heartbeat(1)
	nilRec.Record(QuantumRecord{})
	nilRec.TriggerFault("x")
	nilRec.StartWatchdog(time.Second)
	nilRec.StopWatchdog()
	if nilRec.CheckStall(time.Second) {
		t.Error("nil recorder stalled")
	}

	s := New(8)
	s.Recorder.SetPath("") // file dumps disabled
	s.Recorder.Record(QuantumRecord{Seq: 9})
	buf.Reset()
	if err := s.Recorder.DumpTo(&buf, "manual"); err != nil {
		t.Fatal(err)
	}
	var bb blackbox
	if err := json.Unmarshal(buf.Bytes(), &bb); err != nil {
		t.Fatalf("DumpTo output invalid: %v", err)
	}
	if bb.Reason != "manual" || len(bb.Quanta) != 1 || bb.Quanta[0].Seq != 9 {
		t.Errorf("bundle = reason %q, %d quanta", bb.Reason, len(bb.Quanta))
	}
	// TriggerFault with no path must count but not write anything.
	s.Recorder.TriggerFault("y")
	if s.Recorder.FaultDumps.Value() != 1 {
		t.Error("fault not counted with empty path")
	}
}

func TestRecorderWatchdogGoroutine(t *testing.T) {
	// The real ticker path: freeze the heartbeat and wait for the sweep to
	// fire. The fake clock makes the deadline check deterministic; only the
	// ticker cadence is real time.
	s := New(0)
	path := filepath.Join(t.TempDir(), "bb.json")
	s.Recorder.SetPath(path)
	clk := newFakeClock(time.Unix(1_700_000_000, 0))
	s.Recorder.SetClock(clk.now)
	s.Recorder.Heartbeat(3)
	clk.advance(10 * time.Second)

	s.Recorder.StartWatchdog(20 * time.Millisecond)
	s.Recorder.StartWatchdog(20 * time.Millisecond) // double-start is a no-op
	deadline := time.Now().Add(5 * time.Second)
	for s.Recorder.WatchdogDumps.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.Recorder.StopWatchdog()
	s.Recorder.StopWatchdog() // idempotent
	if s.Recorder.WatchdogDumps.Value() == 0 {
		t.Fatal("watchdog goroutine never fired")
	}
	if bb := readBlackbox(t, path); bb.LastSeq != 3 {
		t.Errorf("last_seq = %d", bb.LastSeq)
	}
}

// TestSweepBlackboxNamesMissions: a sweep's missions all record into the
// suite's one flight recorder, so each dumped record must name its mission
// and carry that mission's own bridge occupancy — not the parent suite's
// gauges, which no scoped mission writes.
func TestSweepBlackboxNamesMissions(t *testing.T) {
	s := New(0)
	s.Recorder.SetPath("")
	occupancy := map[string]int64{}
	for i, rx := range []int64{7, 9} {
		mo := s.Mission("", [2]string{"map", "tunnel"})
		mo.Bridge.RxBytes.Set(rx)
		mo.Bridge.RxBytesHWM.SetMax(rx)
		occupancy[mo.ID] = rx
		start := mo.Core.BeginQuantum()
		mo.Core.EndQuantum(start, 0, TelemetrySample{Frame: int64(i)})
	}
	var buf bytes.Buffer
	if err := s.Recorder.DumpTo(&buf, "manual"); err != nil {
		t.Fatal(err)
	}
	var bb struct {
		Quanta []struct {
			Mission       string `json:"mission"`
			BridgeRxBytes int64  `json:"bridge_rx_bytes"`
			BridgeRxHWM   int64  `json:"bridge_rx_hwm"`
		} `json:"quanta"`
	}
	if err := json.Unmarshal(buf.Bytes(), &bb); err != nil {
		t.Fatal(err)
	}
	if len(bb.Quanta) != 2 {
		t.Fatalf("%d quanta, want one per mission", len(bb.Quanta))
	}
	for _, q := range bb.Quanta {
		want, ok := occupancy[q.Mission]
		if !ok || q.BridgeRxBytes != want || q.BridgeRxHWM != want {
			t.Errorf("record of mission %q: bridge_rx_bytes %d, hwm %d; want its mission's %d",
				q.Mission, q.BridgeRxBytes, q.BridgeRxHWM, occupancy[q.Mission])
		}
	}
}
