package env

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/world"
)

// startResilServer boots a fresh default sim behind a server on ln (a
// plain loopback listener when nil) and serves it for the test's lifetime.
func startResilServer(t *testing.T, ln net.Listener) *Server {
	t.Helper()
	sim, err := New(DefaultConfig(world.Tunnel()))
	if err != nil {
		t.Fatal(err)
	}
	if ln == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServerOn(sim, ln)
	t.Cleanup(func() { srv.Close() })
	go srv.Serve()
	return srv
}

// driveClient runs a fixed RPC itinerary — deferred commands, batched
// sensor fetches, synchronous telemetry — and returns the concatenated
// telemetry bytes, the determinism fingerprint of the run.
func driveClient(t *testing.T, c *Client) []byte {
	t.Helper()
	var out []byte
	for i := 0; i < 8; i++ {
		if err := c.SetVelocity(1.5, 0, 0.1); err != nil {
			t.Fatal(err)
		}
		if err := c.StepFrames(1); err != nil {
			t.Fatal(err)
		}
		pkts, err := c.FetchSensors([]packet.Type{packet.CamReq, packet.IMUReq, packet.DepthReq})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			out = append(out, byte(p.Type), byte(p.Type>>8))
			out = append(out, p.Payload...)
		}
		tm, err := c.Telemetry()
		if err != nil {
			t.Fatal(err)
		}
		out = AppendTelemetry(out, tm)
	}
	return out
}

// TestResilientClientMatchesPlainUnderFaults drives two identical sims
// through the same itinerary — one over a plain loopback link, one through
// a scripted gauntlet of resets, cuts, corruption, and a blackhole — and
// requires identical results: the reconnect/replay/dedup machinery must be
// invisible to the application.
func TestResilientClientMatchesPlainUnderFaults(t *testing.T) {
	plainSrv := startResilServer(t, nil)
	plain, err := Dial(plainSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	want := driveClient(t, plain)

	faultSrv := startResilServer(t, nil)
	inj := faultnet.New(faultnet.Config{
		Seed: 11,
		Script: []faultnet.Fault{
			{Conn: 0, Dir: faultnet.DirWrite, Op: 3, Kind: faultnet.Reset},
			{Conn: 1, Dir: faultnet.DirRead, Op: 2, Kind: faultnet.Cut},
			{Conn: 2, Dir: faultnet.DirRead, Op: 4, Kind: faultnet.Corrupt},
			{Conn: 3, Dir: faultnet.DirRead, Op: 6, Kind: faultnet.Blackhole},
			{Conn: 4, Dir: faultnet.DirWrite, Op: 9, Kind: faultnet.Latency, Latency: time.Millisecond},
		},
	})
	suite := obs.New(0)
	faulty, err := DialWith(faultSrv.Addr(), DialOptions{
		MaxRetries:  6,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
		RPCTimeout:  250 * time.Millisecond,
		CRCPayload:  true,
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return inj.WrapConn(c), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()
	faulty.SetObs(suite.RPC)

	got := driveClient(t, faulty)
	if !bytes.Equal(want, got) {
		t.Fatalf("faulted run diverged from plain run (%d vs %d bytes)", len(got), len(want))
	}
	if inj.Fired() < 4 {
		t.Fatalf("only %d faults fired (%v)", inj.Fired(), inj.Counts())
	}
	if suite.RPC.Reconnects.Value() == 0 {
		t.Fatal("client never reconnected")
	}
	if suite.RPC.ReplayedFrames.Value() == 0 {
		t.Fatal("client never replayed frames")
	}
	if suite.RPC.ChecksumErrors.Value() == 0 {
		t.Fatal("corruption was never detected by CRC")
	}
}

// TestServerAcceptBackoff proves transient Accept failures don't kill the
// serve goroutine: the listener errors a few times, then the same Serve
// call accepts and serves a real client.
func TestServerAcceptBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultnet.New(faultnet.Config{AcceptErrors: 3})
	startResilServer(t, inj.WrapListener(ln))

	c, err := DialWith(ln.Addr().String(), DialOptions{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Telemetry(); err != nil {
		t.Fatal(err)
	}
}

// TestServerDedupIsExactlyOnce feeds the server the same resilient frame
// twice at the packet level and requires (a) byte-identical responses and
// (b) single execution — the simulator advances by the stepped frames
// once, not twice.
func TestServerDedupIsExactlyOnce(t *testing.T) {
	srv := startResilServer(t, nil)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := packet.NewReader(conn)

	frame, err := packet.AppendFrame(nil, packet.U64(packet.RPCStepFrames, 2), 0, 0, 0, 0xfeed, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	read := func() (packet.Packet, uint32) {
		t.Helper()
		p, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		_, seq, ok := r.Resil()
		if !ok {
			t.Fatal("response not resil-stamped")
		}
		return p, seq
	}
	if _, err := conn.Write(append(append([]byte{}, frame...), frame...)); err != nil {
		t.Fatal(err)
	}
	p1, s1 := read()
	p2, s2 := read()
	if p1.Type != packet.RPCAck || p2.Type != packet.RPCAck || s1 != 1 || s2 != 1 {
		t.Fatalf("responses: %v/%d, %v/%d", p1.Type, s1, p2.Type, s2)
	}

	// Ask for telemetry (seq 2) and check the sim stepped exactly twice.
	frame, err = packet.AppendFrame(nil, packet.Packet{Type: packet.RPCTelemetry}, 0, 0, 0, 0xfeed, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	resp, _ := read()
	tm, err := DecodeTelemetry(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Frame != 2 {
		t.Fatalf("sim at frame %d after replayed StepFrames(2), want 2 (replay re-executed?)", tm.Frame)
	}
}

// countingConn counts Write calls on a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// serverTelemetry asks the server for telemetry over a connection of its
// own: the server Sim's reply, with no client cache in between.
func serverTelemetry(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := packet.NewWriter(conn)
	if err := w.WritePacket(packet.Packet{Type: packet.RPCTelemetry}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := packet.NewReader(conn).Next()
	if err != nil || resp.Type != packet.RPCTelemetry {
		t.Fatalf("server telemetry: %v %v", resp.Type, err)
	}
	return append([]byte(nil), resp.Payload...)
}

// TestTelemetryCacheWire pins when Client.Telemetry reaches the wire. A
// quantum that steps no frame — sensor reads and all — writes nothing for
// its Telemetry; after StepFrames(n > 0), a Reset, a SetVelocity whose ack
// is still owed, and a link recovery it writes, and each reply equals the
// server Sim's bit for bit.
func TestTelemetryCacheWire(t *testing.T) {
	srv := startResilServer(t, nil)
	var writes atomic.Int64
	var mu sync.Mutex
	var conns []net.Conn
	c, err := DialWith(srv.Addr(), DialOptions{
		MaxRetries:  3,
		BackoffBase: time.Millisecond,
		RPCTimeout:  30 * time.Second,
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			return countingConn{Conn: conn, writes: &writes}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// telemetry calls Telemetry and reports whether it wrote, requiring the
	// reply to equal the server's.
	telemetry := func(what string) bool {
		t.Helper()
		before := writes.Load()
		tm, err := c.Telemetry()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		wrote := writes.Load() != before
		if got, want := AppendTelemetry(nil, tm), serverTelemetry(t, srv.Addr()); !bytes.Equal(got, want) {
			t.Fatalf("%s: telemetry differs from the server Sim's", what)
		}
		return wrote
	}
	mustWire := func(what string) {
		t.Helper()
		if !telemetry(what) {
			t.Errorf("%s: Telemetry answered from its cache", what)
		}
	}
	mustCache := func(what string) {
		t.Helper()
		if telemetry(what) {
			t.Errorf("%s: Telemetry reached the wire", what)
		}
	}

	mustWire("first call")
	mustCache("no request since")
	if err := c.SetVelocity(3, 0, 0.2); err != nil {
		t.Fatal(err)
	}
	mustWire("ack owed for SetVelocity")
	// The sensor read between collects the step's ack, so only the step
	// itself can send the next Telemetry to the wire.
	if err := c.StepFrames(20); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetDepth(); err != nil {
		t.Fatal(err)
	}
	mustWire("after StepFrames(20)")

	// A frame-less quantum: the exchange's sensor reads, then telemetry.
	if _, err := c.FetchSensors([]packet.Type{packet.DepthReq, packet.CamReq, packet.IMUReq}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetDepth(); err != nil {
		t.Fatal(err)
	}
	mustCache("frame-less quantum")

	if err := c.Reset(1, 0.5, 0, 0.1); err != nil {
		t.Fatal(err)
	}
	mustWire("after Reset")
	mustCache("no request since Reset")

	// Break the connection under the client: the next wire call recovers
	// the link, and the telemetry after it is fetched afresh.
	mu.Lock()
	conns[len(conns)-1].Close()
	mu.Unlock()
	if _, err := c.GetDepth(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	dials := len(conns)
	mu.Unlock()
	if dials != 2 {
		t.Fatalf("%d dials, want the link recovered once", dials)
	}
	mustWire("after a link recovery")
	mustCache("no request since the recovery")
}
