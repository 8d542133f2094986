package soc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/world"
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
// and EnergyBreakdown, and in the TX count, and requires the status codec
// to carry each one: a field added to either struct without a matching
// codec change fails here.
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
		want.txLen = next
		next++
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

// TestStatusOldWidthFailsClosed: a status of the width before the TX count
// was added — 153 bytes — is rejected by every decoder that reads one,
// including an RTLBatch whose first packet header would otherwise be read
// as the count.
func TestStatusOldWidthFailsClosed(t *testing.T) {
	const oldSize = statusSize - 8
	old := rtlStatus{cycle: 7, stats: Stats{Cycles: 7, Syncs: 1}}.appendTo(nil)[:oldSize]
	if _, err := decodeStatus(old); err == nil {
		t.Error("decodeStatus accepted an old-width status")
	}
	if _, _, err := decodeStepped(append(binary.LittleEndian.AppendUint64(nil, 1000), old...)); err == nil {
		t.Error("decodeStepped accepted an old-width status")
	}
	for _, pkts := range [][]packet.Packet{
		nil,
		{{Type: packet.DepthReq}},
		{{Type: packet.DepthReq}, packet.Depth{Meters: 1}.Marshal()},
		{packet.Cmd{VForward: 3}.Marshal()},
	} {
		b, err := packet.AppendBatch(append([]byte(nil), old...), pkts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeBatchReply(nil, b); err == nil {
			t.Errorf("decodeBatchReply accepted an old-width status before %d packets", len(pkts))
		}
	}
}

// runReply steps a fresh echo machine through one run of up to requested
// quanta of 1000 cycles, after pushing push, and returns the RTLRunMarks
// payload a server would answer with.
func runReply(t testing.TB, requested int, push []packet.Packet) []byte {
	m := NewMachine(Config{Core: BOOM, Gemmini: true}, echoProgram)
	defer m.Close()
	if err := m.Push(push); err != nil {
		t.Fatal(err)
	}
	marks := make([]QuantumMark, requested)
	n, err := m.StepRun(1000, marks)
	if err != nil {
		t.Fatal(err)
	}
	return appendRunMarks(nil, marks[:n], machineStatus(m))
}

// FuzzRTLReply feeds arbitrary bytes to the decoders of the four reply
// payloads that carry the status (RTLStatusReply, RTLStepped, RTLBatch,
// and RTLRunMarks answering runs of 1, 3 and MaxRunQuanta quanta). Each
// must fail with an error or decode, never panic. A decoded status must
// encode back to the same bytes, a decoded batch must survive a re-encode
// round trip, and a decoded run must re-encode to the same bytes.
func FuzzRTLReply(f *testing.F) {
	st := rtlStatus{cycle: 7, done: true, stats: Stats{Cycles: 7, Syncs: 1, Fingerprint: 9}}
	status := st.appendTo(nil)
	batch, err := packet.AppendBatch(st.appendTo(nil), []packet.Packet{{Type: packet.DepthReq}, packet.Depth{Meters: 1}.Marshal()})
	if err != nil {
		f.Fatal(err)
	}
	// A full run of three quanta, a run cut short by the echo's reply in
	// the TX queue, and the full run mangled: one byte short, its final
	// status moved a cycle on, and claiming one quantum more.
	run := runReply(f, 3, nil)
	f.Add(run)
	f.Add(runReply(f, 3, []packet.Packet{{Type: packet.DepthReq}}))
	f.Add(run[:len(run)-1])
	moved := append([]byte(nil), run...)
	binary.LittleEndian.PutUint64(moved[len(moved)-statusSize:], binary.LittleEndian.Uint64(moved[len(moved)-statusSize:])+1)
	f.Add(moved)
	more := append([]byte(nil), run...)
	more[0]++
	f.Add(more)
	f.Add(status)
	f.Add(append(binary.LittleEndian.AppendUint64(nil, 1000), status...))
	f.Add(batch)
	f.Add(batch[:len(batch)-3])
	// A status reporting packets left in the TX queue (valid after a step,
	// rejected in a drain's reply), and the old width.
	st.txLen = 2
	f.Add(st.appendTo(nil))
	f.Add(append(st.appendTo(nil), batch[statusSize:]...))
	f.Add(status[:statusSize-8])
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
		var marks [MaxRunQuanta]QuantumMark
		for _, requested := range []int{1, 3, MaxRunQuanta} {
			if n, st, err := decodeRunMarks(marks[:requested], b); err == nil {
				if re := appendRunMarks(nil, marks[:n], st); !bytes.Equal(re, b) {
					t.Fatalf("RTLRunMarks %x (run of %d) re-encodes as %x", b, requested, re)
				}
			}
		}
	})
}

// TestRunMarksFailClosed: each malformed RTLRunMarks payload fails with an
// error naming what is wrong, writes no mark, and allocates nothing sized
// from the wire.
func TestRunMarksFailClosed(t *testing.T) {
	full := runReply(t, 3, nil) // three quanta, the TX queue empty after each
	if n, _, err := decodeRunMarks(make([]QuantumMark, 3), full); err != nil || n != 3 {
		t.Fatalf("a well-formed run decodes as %d quanta, %v", n, err)
	}
	withCount := func(n uint64) []byte {
		b := append([]byte(nil), full...)
		binary.LittleEndian.PutUint64(b, n)
		return b
	}
	moved := append([]byte(nil), full...)
	binary.LittleEndian.PutUint64(moved[len(full)-statusSize:], 1)
	for _, c := range []struct {
		name      string
		b         []byte
		requested int
		want      string
	}{
		{"count above the request", full, 2, "counts 3 quanta, want 1 to the 2 requested"},
		{"zero count", withCount(0), 3, "counts 0 quanta"},
		{"huge count", withCount(1 << 62), 3, "want 1 to the 3 requested"},
		{"no count", full[:7], 3, "too short for its count"},
		{"a byte short", full[:len(full)-1], 3, "is 240 bytes, want 241 for 3 quanta"},
		{"a byte long", append(append([]byte(nil), full...), 0), 3, "is 242 bytes, want 241 for 3 quanta"},
		{"count below the marks", withCount(2), 3, "is 241 bytes, want 217 for 2 quanta"},
		{"status cycle off the last mark", moved, 3, "status is at cycle 1, its last mark at 3000"},
		{"short run without a cause", full, 4, "stopped after 3 of 4 quanta"},
	} {
		t.Run(c.name, func(t *testing.T) {
			marks := make([]QuantumMark, c.requested)
			_, _, err := decodeRunMarks(marks, c.b)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
			for i, mk := range marks {
				if mk != (QuantumMark{}) {
					t.Errorf("mark %d written by a failed decode: %+v", i, mk)
				}
			}
		})
	}
	// Allocation: a count of 2^62 fails before any of it is used, and a
	// good run decodes without allocating.
	var marks [3]QuantumMark
	huge := withCount(1 << 62)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		decodeRunMarks(marks[:], huge)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / 100; perCall > 512 {
		t.Errorf("a failed decode of a 2^62-quantum count allocates %d bytes", perCall)
	}
	if a := testing.AllocsPerRun(100, func() { decodeRunMarks(marks[:], full) }); a != 0 {
		t.Errorf("a good run decodes with %v allocations", a)
	}
}

// TestRemoteRTLStepRunMatchesLocal grants the same schedule of runs and
// pushes to a local machine and a remote one: every run must stop where
// the local one stops (after the echo's reply lands in the TX queue, or
// at the requested count), with the same marks, and the remote status
// after it must be the local machine's. A run is one write.
func TestRemoteRTLStepRunMatchesLocal(t *testing.T) {
	m := NewMachine(Config{Core: BOOM, Gemmini: true}, echoProgram)
	t.Cleanup(m.Close)
	srv, err := NewServer(m, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	var writes, written atomic.Int64
	r, err := DialRTLWith(srv.Addr(), DialOptions{
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			return writeCounter{Conn: c, n: &writes, bytes: &written}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	local := NewMachine(Config{Core: BOOM, Gemmini: true}, echoProgram)
	t.Cleanup(local.Close)

	var short, full int
	for i := 0; i < 12; i++ {
		got, _ := r.Pull()
		want, _ := local.Pull()
		if len(got) != len(want) {
			t.Fatalf("run %d: pulled %d packets, local %d", i, len(got), len(want))
		}
		var push []packet.Packet
		if i%3 == 0 {
			push = []packet.Packet{{Type: packet.DepthReq}}
		}
		r.Push(push)
		local.Push(push)
		requested := 1 + i%5
		before := writes.Load()
		remote, wantMarks := make([]QuantumMark, requested), make([]QuantumMark, requested)
		n, err := r.StepRun(20_000, remote)
		if err != nil {
			t.Fatal(err)
		}
		if w := writes.Load() - before; w != 1 {
			t.Errorf("run %d made %d writes, want 1", i, w)
		}
		wantN, _ := local.StepRun(20_000, wantMarks)
		if n != wantN || !reflect.DeepEqual(remote[:n], wantMarks[:wantN]) {
			t.Fatalf("run %d: remote %d marks %+v, local %d %+v", i, n, remote[:n], wantN, wantMarks[:wantN])
		}
		if n < requested {
			short++
		} else {
			full++
		}
		if r.Cycle() != local.Cycle() || r.Stats() != local.Stats() || r.EnergyBreakdown() != local.EnergyBreakdown() {
			t.Fatalf("run %d: remote status differs from the local machine's", i)
		}
	}
	if short == 0 || full == 0 {
		t.Fatalf("schedule made %d short and %d full runs; want both", short, full)
	}
}

// encodeSnap gob-encodes a machine image as RTLSnapData carries it.
func encodeSnap(t testing.TB, st *SnapState) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRTLSnapReply feeds arbitrary bytes to the RTLSnapData decoder (the
// RTLRestore request's too). It must fail with an error or decode, never
// panic, and a decoded image must re-encode to bytes that decode and
// re-encode to themselves. Seeds are real captures: a pristine echo
// machine, and one stepped with a request in flight.
func FuzzRTLSnapReply(f *testing.F) {
	m := NewStateMachine(Config{Core: BOOM, Gemmini: true}, echoStateProgram{})
	defer m.Close()
	for i := 0; i < 2; i++ {
		st, err := m.SnapState()
		if err != nil {
			f.Fatal(err)
		}
		b := encodeSnap(f, st)
		f.Add(b)
		f.Add(b[:len(b)/2])
		if err := m.Push([]packet.Packet{{Type: packet.DepthReq}}); err != nil {
			f.Fatal(err)
		}
		if _, err := m.Step(1_500); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decodeSnap(b)
		if err != nil {
			return
		}
		once := encodeSnap(t, st)
		again, err := decodeSnap(once)
		if err != nil {
			t.Fatalf("a re-encoded image does not decode: %v", err)
		}
		if twice := encodeSnap(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("image changed in a second round trip:\n%x\n%x", once, twice)
		}
	})
}

// noListener is a listener that never accepts: the handler fuzz target
// drives the servers' handlers without the network.
type noListener struct{}

func (noListener) Accept() (net.Conn, error) { return nil, net.ErrClosed }
func (noListener) Close() error              { return nil }
func (noListener) Addr() net.Addr            { return &net.TCPAddr{} }

// replyTypes maps each request type a server answers to the reply it
// answers a well-formed one with.
var replyTypes = map[packet.Type]packet.Type{
	packet.RPCStepFrames: packet.RPCAck,
	packet.RPCFrameRate:  packet.RPCFrameRate,
	packet.RPCReset:      packet.RPCAck,
	packet.RPCTelemetry:  packet.RPCTelemetry,
	packet.CamReq:        packet.CamData,
	packet.IMUReq:        packet.IMUData,
	packet.DepthReq:      packet.DepthData,
	packet.CmdVel:        packet.RPCAck,
	packet.RTLStep:       packet.RTLStepped,
	packet.RTLStepRun:    packet.RTLRunMarks,
	packet.RTLPush:       packet.RPCAck,
	packet.RTLPull:       packet.RTLBatch,
	packet.RTLStatus:     packet.RTLStatusReply,
	packet.RTLSnap:       packet.RTLSnapData,
	packet.RTLRestore:    packet.RPCAck,
}

// envRequest reports whether t is served by the environment server.
func envRequest(t packet.Type) bool {
	return t>>8 == 0x02 || t == packet.CamReq || t == packet.IMUReq || t == packet.DepthReq || t == packet.CmdVel
}

// FuzzServerHandlers decodes each input as one request frame and hands it
// to fresh environment and RTL servers' handlers, each over a fresh
// simulator. Every request gets a reply from each, never a panic: the
// server's own reply type, or an RPCError — always for an unknown type or
// the other server's request, and for a bad payload. An RTL reply that
// carries the status decodes with the client's decoder. A run request for
// 0 quanta or more than MaxRunQuanta is refused without stepping the
// machine. Requests to step more than 16 frames are skipped, to bound
// each input's time, not as a server limit.
func FuzzServerHandlers(f *testing.F) {
	frame := func(t packet.Type, payload []byte) []byte {
		b, err := packet.Packet{Type: t, Payload: payload}.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	u64s := func(v ...uint64) []byte {
		var b []byte
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
		return b
	}
	for typ := range replyTypes {
		f.Add(frame(typ, nil))
	}
	f.Add(frame(packet.RPCStepFrames, u64s(2)))
	f.Add(frame(packet.RPCReset, u64s(0, 0, 0, 0)))
	f.Add(frame(packet.CmdVel, packet.Cmd{VForward: 3}.Marshal().Payload))
	f.Add(frame(packet.RTLStep, u64s(50_000)))
	f.Add(frame(packet.RTLStepRun, u64s(10_000, 4)))
	f.Add(frame(packet.RTLStepRun, u64s(10_000, 0)))
	f.Add(frame(packet.RTLStepRun, u64s(10_000, MaxRunQuanta+1)))
	f.Add(frame(packet.RTLPush, frame(packet.DepthReq, nil)))
	f.Add(frame(packet.Type(0x0399), nil))
	m := NewStateMachine(Config{Core: BOOM, Gemmini: true}, echoStateProgram{})
	pristine, err := m.SnapState()
	m.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame(packet.RTLRestore, encodeSnap(f, pristine)))
	tunnel := world.Tunnel()
	f.Fuzz(func(t *testing.T, b []byte) {
		req, n, err := packet.Decode(b)
		if err != nil || n != len(b) {
			return // not one whole frame: FuzzDecode's ground
		}
		if frames, err := req.AsU64(); req.Type == packet.RPCStepFrames && err == nil && frames > 16 {
			return
		}
		sim, err := env.New(env.DefaultConfig(tunnel))
		if err != nil {
			t.Fatal(err)
		}
		envReply := env.NewServerOn(sim, noListener{}).Handler()(req)
		m := NewStateMachine(Config{Core: BOOM, Gemmini: true}, echoStateProgram{})
		defer m.Close()
		srv := NewServerOn(m, noListener{})
		srv.SetRestorer(func() (Config, StateProgram, error) {
			return Config{Core: BOOM, Gemmini: true}, echoStateProgram{}, nil
		})
		rtlReply := srv.Handler()(req)
		if srv.m != m { // an RTLRestore replaced it
			defer srv.m.Close()
		}

		want, known := replyTypes[req.Type]
		for _, c := range []struct {
			server string
			reply  packet.Packet
			serves bool
		}{{"env", envReply, known && envRequest(req.Type)}, {"RTL", rtlReply, known && !envRequest(req.Type)}} {
			if c.reply.Type == packet.RPCError {
				if len(c.reply.Payload) == 0 {
					t.Errorf("%s server refused %v with an empty error", c.server, req.Type)
				}
				continue
			}
			if !c.serves || c.reply.Type != want {
				t.Errorf("%s server answered %v with %v", c.server, req.Type, c.reply.Type)
			}
		}
		switch rtlReply.Type {
		case packet.RTLStepped:
			_, _, err = decodeStepped(rtlReply.Payload)
		case packet.RTLBatch:
			_, _, err = decodeBatchReply(nil, rtlReply.Payload)
		case packet.RTLStatusReply:
			_, err = decodeStatus(rtlReply.Payload)
		case packet.RTLRunMarks:
			_, _, err = decodeRunMarks(make([]QuantumMark, binary.LittleEndian.Uint64(req.Payload[8:])), rtlReply.Payload)
		case packet.RTLSnapData:
			_, err = decodeSnap(rtlReply.Payload)
		}
		if err != nil {
			t.Errorf("the RTL server's %v reply does not decode: %v", rtlReply.Type, err)
		}
		if req.Type == packet.RTLStepRun {
			if _, _, err := decodeRunRequest(req.Payload); err != nil {
				if rtlReply.Type != packet.RPCError {
					t.Errorf("a malformed run request (%v) was answered with %v", err, rtlReply.Type)
				}
				if st := m.Stats(); st.Syncs != 0 || m.Cycle() != 0 {
					t.Errorf("a refused run request stepped the machine: %d quanta, cycle %d", st.Syncs, m.Cycle())
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

// writeCounter counts Write calls on a connection, and the bytes written.
type writeCounter struct {
	net.Conn
	n, bytes *atomic.Int64
}

func (c writeCounter) Write(p []byte) (int, error) {
	c.n.Add(1)
	c.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// TestRemoteRTLWritesPerQuantum pins the quantum's wire cost: one write
// (the Step, carrying a non-empty push in the same segment) when the
// previous step left the TX queue empty, two (Pull, then Step) otherwise.
// An empty push sends no bytes: such a quantum writes the step frame
// alone, after the pull frame when there was output to drain. A local
// machine run through the same schedule says which quanta found packets
// waiting.
func TestRemoteRTLWritesPerQuantum(t *testing.T) {
	m := NewMachine(Config{Core: BOOM, Gemmini: true}, echoProgram)
	t.Cleanup(m.Close)
	srv, err := NewServer(m, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	var writes, written atomic.Int64
	r, err := DialRTLWith(srv.Addr(), DialOptions{
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			return writeCounter{Conn: c, n: &writes, bytes: &written}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	local := NewMachine(Config{Core: BOOM, Gemmini: true}, echoProgram)
	t.Cleanup(local.Close)

	// Every third quantum pushes nothing, so the quantum after it finds
	// the TX queue empty: the schedule reaches both costs.
	var one, two int
	for i := 0; i < 12; i++ {
		var push []packet.Packet
		if i%3 != 2 {
			push = []packet.Packet{{Type: packet.DepthReq}}
		}
		want, wantBytes := int64(1), int64(packet.HeaderSize+8)
		if local.Bridge().PeekTxLen() > 0 {
			want, wantBytes, two = 2, wantBytes+packet.HeaderSize, two+1
		} else {
			one++
		}
		before, beforeBytes := writes.Load(), written.Load()
		got, err := r.Pull()
		if err != nil {
			t.Fatal(err)
		}
		wantPkts, _ := local.Pull()
		if len(got) != len(wantPkts) {
			t.Fatalf("quantum %d: pulled %d packets, local machine %d", i, len(got), len(wantPkts))
		}
		if err := r.Push(push); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Step(50_000); err != nil {
			t.Fatal(err)
		}
		local.Push(push)
		local.Step(50_000)
		if got := writes.Load() - before; got != want {
			t.Errorf("quantum %d made %d writes, want %d", i, got, want)
		}
		if got := written.Load() - beforeBytes; push == nil && got != wantBytes {
			t.Errorf("quantum %d pushed nothing and wrote %d bytes, want %d", i, got, wantBytes)
		}
	}
	if one == 0 || two == 0 {
		t.Fatalf("schedule reached %d one-write and %d two-write quanta; want both", one, two)
	}
	if r.Stats() != local.Stats() {
		t.Errorf("stats:\nremote %+v\nlocal  %+v", r.Stats(), local.Stats())
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
