package soc

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
)

func echoProgram(rt *Runtime) error {
	for {
		p := rt.Recv()
		if p.Type == packet.DepthReq {
			rt.Send(packet.Depth{Meters: 7}.Marshal())
		}
		rt.Compute(1_000)
	}
}

func startRTLServer(t *testing.T, prog Program) *RemoteRTL {
	t.Helper()
	m := NewMachine(Config{Core: BOOM, Gemmini: true}, prog)
	t.Cleanup(m.Close)
	srv, err := NewServer(m, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	r, err := DialRTL(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestRemoteRTLStepAndIO(t *testing.T) {
	r := startRTLServer(t, echoProgram)
	if r.Cycle() != 0 || r.Done() {
		t.Fatalf("fresh machine: cycle=%d done=%v", r.Cycle(), r.Done())
	}
	if err := r.Push([]packet.Packet{{Type: packet.DepthReq}}); err != nil {
		t.Fatal(err)
	}
	used, err := r.Step(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if used != 100_000 {
		t.Errorf("used = %d", used)
	}
	if r.Cycle() != 100_000 {
		t.Errorf("cycle = %d", r.Cycle())
	}
	out, err := r.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Type != packet.DepthData {
		t.Fatalf("pulled %+v", out)
	}
	d, _ := packet.UnmarshalDepth(out[0])
	if d.Meters != 7 {
		t.Errorf("depth = %v", d.Meters)
	}
	if st := r.Stats(); st.ComputeCycles == 0 {
		t.Error("remote stats empty")
	}
}

func TestRemoteRTLMatchesLocal(t *testing.T) {
	// The same grant/push schedule against a local machine and a remote
	// one must produce identical cycle counts and stats.
	run := func(viaTCP bool) (uint64, Stats) {
		if viaTCP {
			r := startRTLServer(t, echoProgram)
			for i := 0; i < 5; i++ {
				r.Push([]packet.Packet{{Type: packet.DepthReq}})
				r.Step(50_000)
				r.Pull()
			}
			return r.Cycle(), r.Stats()
		}
		m := NewMachine(Config{Core: BOOM, Gemmini: true}, echoProgram)
		defer m.Close()
		for i := 0; i < 5; i++ {
			m.Push([]packet.Packet{{Type: packet.DepthReq}})
			m.Step(50_000)
			m.Pull()
		}
		return m.Cycle(), m.Stats()
	}
	lc, ls := run(false)
	rc, rs := run(true)
	if lc != rc || ls != rs {
		t.Errorf("local %d/%+v vs remote %d/%+v", lc, ls, rc, rs)
	}
}

func TestRemoteRTLBadAddress(t *testing.T) {
	if _, err := DialRTL("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

// echoStateProgram is echoProgram as a StateProgram. It can be restored
// only from a pristine image: there the program's sole state is its first
// Recv, which the restored coroutine re-issues, so the blob is empty.
type echoStateProgram struct{}

func (echoStateProgram) Run(rt *Runtime) error          { return echoProgram(rt) }
func (echoStateProgram) SnapshotState() ([]byte, error) { return nil, nil }
func (echoStateProgram) RestoreState([]byte) error      { return nil }

// TestRemoteRTLRestoreReportsFreshStatus flies a long schedule over one
// link, restores the machine's pristine image, and flies a shorter one
// without I/O: the status the link reports must be a fresh in-process
// machine's for the short schedule alone. The short flight leaves counters
// the long one raised (packets, I/O and compute cycles) at zero, so a
// client that merged a reply into its cached status instead of replacing
// it would report the long flight's values.
func TestRemoteRTLRestoreReportsFreshStatus(t *testing.T) {
	cfg := Config{Core: BOOM, Gemmini: true}
	mach := NewStateMachine(cfg, echoStateProgram{})
	t.Cleanup(mach.Close)
	pristine, err := mach.SnapState()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(mach, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetRestorer(func() (Config, StateProgram, error) { return cfg, echoStateProgram{}, nil })
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	r, err := DialRTL(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	for i := 0; i < 20; i++ {
		if err := r.Push([]packet.Packet{{Type: packet.DepthReq}}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Step(50_000); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Pull(); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.PacketsIn == 0 || st.PacketsOut == 0 || st.ComputeCycles == 0 {
		t.Fatalf("long flight raised no counters: %+v", st)
	}
	if err := r.Restore(pristine); err != nil {
		t.Fatal(err)
	}
	const short = 3
	for i := 0; i < short; i++ {
		if _, err := r.Step(50_000); err != nil {
			t.Fatal(err)
		}
	}

	local := NewMachine(cfg, echoProgram)
	defer local.Close()
	for i := 0; i < short; i++ {
		if _, err := local.Step(50_000); err != nil {
			t.Fatal(err)
		}
	}
	if r.Cycle() != local.Cycle() {
		t.Errorf("cycle: remote %d, local %d", r.Cycle(), local.Cycle())
	}
	if r.Stats() != local.Stats() {
		t.Errorf("stats:\nremote %+v\nlocal  %+v", r.Stats(), local.Stats())
	}
	if r.EnergyBreakdown() != local.EnergyBreakdown() {
		t.Errorf("energy:\nremote %+v\nlocal  %+v", r.EnergyBreakdown(), local.EnergyBreakdown())
	}
}

// TestStatusCodecRoundTrip puts a distinct value in every field of Stats
// and EnergyBreakdown and requires the status codec to carry each one: a
// field added to either struct without a matching codec change fails here.
func TestStatusCodecRoundTrip(t *testing.T) {
	next := uint64(0x0102030405060708)
	var fill func(path string, v reflect.Value)
	fill = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			v.SetUint(next)
			next += 0x0101010101010101
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		default:
			t.Fatalf("%s is a %v; the status codec carries only uint64 fields", path, v.Kind())
		}
	}
	for _, done := range []bool{false, true} {
		want := rtlStatus{cycle: next, done: done}
		next++
		fill("Stats", reflect.ValueOf(&want.stats).Elem())
		fill("EnergyBreakdown", reflect.ValueOf(&want.energy).Elem())
		b := want.appendTo(nil)
		if len(b) != statusSize {
			t.Fatalf("encoded status is %d bytes, want %d", len(b), statusSize)
		}
		got, err := decodeStatus(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("round trip lost fields:\ngot  %+v\nwant %+v", got, want)
		}
	}
}

// FuzzRTLReply feeds arbitrary bytes to the decoders of the three reply
// payloads that carry the status (RTLStatusReply, RTLStepped, RTLBatch).
// Each must fail with an error or decode, never panic. A decoded status
// must encode back to the same bytes, and a decoded batch must survive a
// re-encode round trip.
func FuzzRTLReply(f *testing.F) {
	st := rtlStatus{cycle: 7, done: true, stats: Stats{Cycles: 7, Syncs: 1, Fingerprint: 9}}
	status := st.appendTo(nil)
	batch, err := packet.AppendBatch(st.appendTo(nil), []packet.Packet{{Type: packet.DepthReq}, packet.Depth{Meters: 1}.Marshal()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(status)
	f.Add(append(binary.LittleEndian.AppendUint64(nil, 1000), status...))
	f.Add(batch)
	f.Add(batch[:len(batch)-3])
	f.Fuzz(func(t *testing.T, b []byte) {
		if st, err := decodeStatus(b); err == nil && !bytes.Equal(st.appendTo(nil), b) {
			t.Fatalf("status %x re-encodes as %x", b, st.appendTo(nil))
		}
		if used, st, err := decodeStepped(b); err == nil {
			re := st.appendTo(binary.LittleEndian.AppendUint64(nil, used))
			if !bytes.Equal(re, b) {
				t.Fatalf("RTLStepped %x re-encodes as %x", b, re)
			}
		}
		if pkts, st, err := decodeBatchReply(nil, b); err == nil {
			if !bytes.Equal(st.appendTo(nil), b[:statusSize]) {
				t.Fatalf("RTLBatch status %x re-encodes as %x", b[:statusSize], st.appendTo(nil))
			}
			re, err := packet.AppendBatch(nil, pkts)
			if err != nil {
				t.Fatalf("decoded batch does not re-encode: %v", err)
			}
			again, err := packet.SplitBatch(nil, re)
			if err != nil || len(again) != len(pkts) {
				t.Fatalf("re-encoded batch splits into %d packets (%v), want %d", len(again), err, len(pkts))
			}
			for i := range pkts {
				if again[i].Type != pkts[i].Type || !bytes.Equal(again[i].Payload, pkts[i].Payload) {
					t.Fatalf("packet %d changed in a re-encode round trip", i)
				}
			}
		}
	})
}

// TestRemoteRTLDeferredPushError: a failed push returns nil (its ack is
// deferred), the next call reports the failure once, and the stream stays
// in sync for the calls after it.
func TestRemoteRTLDeferredPushError(t *testing.T) {
	r := startRTLServer(t, echoProgram)
	// A sync packet with a malformed payload is fatal to Machine.Push.
	if err := r.Push([]packet.Packet{{Type: packet.SyncConfig, Payload: []byte{1}}}); err != nil {
		t.Fatalf("push failed before its ack was read: %v", err)
	}
	if _, err := r.Step(1_000); err == nil || !strings.Contains(err.Error(), "deferred push") {
		t.Fatalf("step after a failed push returned %v, want the deferred failure", err)
	}
	if used, err := r.Step(1_000); err != nil || used != 1_000 {
		t.Fatalf("second step: used %d, err %v", used, err)
	}
	if r.Cycle() != 2_000 {
		t.Errorf("cycle = %d after two steps of 1000", r.Cycle())
	}
}

// writeCounter counts Write calls on a connection.
type writeCounter struct {
	net.Conn
	n *atomic.Int64
}

func (c writeCounter) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

// TestRemoteRTLTwoWritesPerQuantum pins the quantum's wire cost: Pull is
// one write, and the deferred push leaves in the same write as the Step
// behind it.
func TestRemoteRTLTwoWritesPerQuantum(t *testing.T) {
	m := NewMachine(Config{Core: BOOM, Gemmini: true}, echoProgram)
	t.Cleanup(m.Close)
	srv, err := NewServer(m, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	var writes atomic.Int64
	r, err := DialRTLWith(srv.Addr(), DialOptions{
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			return writeCounter{Conn: c, n: &writes}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	const quanta = 10
	before := writes.Load()
	for i := 0; i < quanta; i++ {
		if _, err := r.Pull(); err != nil {
			t.Fatal(err)
		}
		if err := r.Push([]packet.Packet{{Type: packet.DepthReq}}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Step(50_000); err != nil {
			t.Fatal(err)
		}
	}
	if got := writes.Load() - before; got != 2*quanta {
		t.Errorf("%d quanta made %d writes, want %d", quanta, got, 2*quanta)
	}
}

// TestServerLogsChecksumDrop: a request that fails its checksum is logged
// before the server drops the connection.
func TestServerLogsChecksumDrop(t *testing.T) {
	m := NewMachine(Config{Core: BOOM, Gemmini: true}, echoProgram)
	t.Cleanup(m.Close)
	srv, err := NewServer(m, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lg := obs.NewLogger(obs.LevelWarn)
	srv.SetLog(lg)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })

	frame, err := packet.AppendFrame(nil, packet.Packet{Type: packet.RTLStatus}, 0, 0, 0, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0xff // the CRC field ends the frame
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The server logs, then closes: reading to EOF orders the two.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatal(err)
	}
	for _, rec := range lg.Snapshot(0) {
		if strings.Contains(rec.Msg, "checksum") {
			return
		}
	}
	t.Errorf("no checksum record among %d log records", lg.Count())
}
