package packet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWriterResilStampRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetTrace(0xabc, 7, ParentExchange)
	w.SetResil(0x1234, true)
	w.SetResilSeq(42)
	if err := w.WritePacket(Packet{Type: DepthReq, Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteU64(SyncGrant, 99); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p.Type != DepthReq || string(p.Payload) != "hello" {
		t.Fatalf("got %v %q", p.Type, p.Payload)
	}
	link, seq, ok := r.Resil()
	if !ok || link != 0x1234 || seq != 42 {
		t.Fatalf("resil = (%#x, %d, %v), want (0x1234, 42, true)", link, seq, ok)
	}
	if !r.ResilCRCPayload() {
		t.Fatal("FlagCRC not observed")
	}
	run, tseq, parent := r.Trace()
	if run != 0xabc || tseq != 7 || parent != ParentExchange {
		t.Fatalf("trace = (%#x, %d, %d)", run, tseq, parent)
	}
	p, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.AsU64()
	if err != nil || v != 99 {
		t.Fatalf("u64 = %d, %v", v, err)
	}
}

// TestAppendFrameMatchesWriter proves replayed frames are byte-identical
// to what the Writer would emit for the same packet and stamps — the
// property that makes window replay transparent on the wire.
func TestAppendFrameMatchesWriter(t *testing.T) {
	p := Packet{Type: CmdVel, Payload: []byte{1, 2, 3, 4}}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetTrace(5, 6, ParentEnvStep)
	w.SetResil(77, true)
	w.SetResilSeq(8)
	if err := w.WritePacket(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	frame, err := AppendFrame(nil, p, 5, 6, ParentEnvStep, 77, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, buf.Bytes()) {
		t.Fatalf("AppendFrame %x != Writer %x", frame, buf.Bytes())
	}
}

func TestChecksumMismatchRejected(t *testing.T) {
	frame, err := AppendFrame(nil, Packet{Type: DepthReq, Payload: []byte("payload")}, 0, 0, 0, 9, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0x10 // flip one payload bit
	_, err = NewReader(bytes.NewReader(frame)).Next()
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	// Without FlagCRC the payload is unguarded by design; the frame must
	// still parse.
	frame, err = AppendFrame(nil, Packet{Type: DepthReq, Payload: []byte("payload")}, 0, 0, 0, 9, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0x10
	if _, err := NewReader(bytes.NewReader(frame)).Next(); err != nil {
		t.Fatalf("metadata-only CRC rejected payload flip: %v", err)
	}
}

func TestReplayWindow(t *testing.T) {
	w := NewReplayWindow(true)
	for i := 0; i < 3; i++ {
		if _, err := w.AppendRequest(Packet{Type: DepthReq, Payload: []byte{byte(i)}}, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if w.Outstanding() != 3 {
		t.Fatalf("outstanding = %d", w.Outstanding())
	}
	w.Ack()
	var buf bytes.Buffer
	wr := NewWriter(&buf)
	n, err := w.Replay(wr)
	if err != nil || n != 2 {
		t.Fatalf("replay = %d, %v", n, err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for want := uint32(2); want <= 3; want++ {
		p, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, seq, ok := r.Resil(); !ok || seq != want {
			t.Fatalf("replayed seq = %d, want %d", seq, want)
		}
		if p.Payload[0] != byte(want-1) {
			t.Fatalf("replayed payload %d for seq %d", p.Payload[0], want)
		}
	}
	// Draining the window resets the arena for reuse.
	w.Ack()
	w.Ack()
	if w.Outstanding() != 0 {
		t.Fatalf("outstanding after drain = %d", w.Outstanding())
	}
	if _, err := w.AppendRequest(Packet{Type: DepthReq}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if len(w.ents) != 1 || w.head != 0 {
		t.Fatalf("window did not reset: head=%d ents=%d", w.head, len(w.ents))
	}
}

func TestReplayWindowFull(t *testing.T) {
	w := NewReplayWindow(false)
	for i := 0; i < ResilWindow; i++ {
		if _, err := w.AppendRequest(Packet{Type: DepthReq}, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.AppendRequest(Packet{Type: DepthReq}, 0, 0, 0); err == nil {
		t.Fatal("window accepted more than ResilWindow unanswered requests")
	}
}

func TestResilSessionDedup(t *testing.T) {
	sess := (&ResilSessions{m: map[uint64]*ResilSession{}}).Get(1)
	var scratch []byte
	for seq := uint32(1); seq <= 3; seq++ {
		if _, _, replayed := sess.Dedup(seq, scratch); replayed {
			t.Fatalf("fresh seq %d reported replayed", seq)
		}
		sess.Store(seq, Packet{Type: DepthData, Payload: []byte{byte(seq)}})
	}
	resp, _, replayed := sess.Dedup(2, scratch)
	if !replayed || resp.Type != DepthData || resp.Payload[0] != 2 {
		t.Fatalf("dedup(2) = %v %v %v", resp.Type, resp.Payload, replayed)
	}
	if _, _, replayed := sess.Dedup(4, scratch); replayed {
		t.Fatal("future seq reported replayed")
	}
	// A sequence evicted from the ring yields an error response rather
	// than silent re-execution.
	for seq := uint32(4); seq <= ResilWindow+2; seq++ {
		sess.Store(seq, Packet{Type: DepthData})
	}
	resp, _, replayed = sess.Dedup(1, scratch)
	if !replayed || resp.Type != RPCError {
		t.Fatalf("evicted dedup = %v, %v", resp.Type, replayed)
	}
}

// TestResilSessionDedupInFlightWaits is the regression test for the
// double-execution race: the original connection dies while a request is
// still executing (reserved by Dedup, Store not yet run), the client
// reconnects and replays the sequence, and the replay arrives on a new
// serve goroutine before the original Store. The replay must wait for the
// original execution and serve its cached response — not re-execute.
func TestResilSessionDedupInFlightWaits(t *testing.T) {
	sess := NewResilSessions().Get(7)
	// Original connection reserves seq 1; the request is "executing".
	if _, _, replayed := sess.Dedup(1, nil); replayed {
		t.Fatal("fresh seq 1 reported replayed")
	}
	type result struct {
		resp     Packet
		replayed bool
	}
	done := make(chan result, 1)
	go func() {
		resp, _, replayed := sess.Dedup(1, nil)
		done <- result{resp, replayed}
	}()
	select {
	case r := <-done:
		t.Fatalf("replayed in-flight seq resolved before Store (replayed=%v, type=%v) — double execution",
			r.replayed, r.resp.Type)
	case <-time.After(20 * time.Millisecond):
	}
	sess.Store(1, Packet{Type: DepthData, Payload: []byte{0xaa}})
	r := <-done
	if !r.replayed || r.resp.Type != DepthData || len(r.resp.Payload) != 1 || r.resp.Payload[0] != 0xaa {
		t.Fatalf("waiter got type=%v payload=%v replayed=%v, want cached response", r.resp.Type, r.resp.Payload, r.replayed)
	}
}

// TestResilSessionConcurrentReplaySingleExecution hammers one sequence from
// many goroutines (one per racing connection): exactly one may win the
// in-flight reservation and execute; every other arrival must be served the
// single cached response. Run under -race this also proves the reservation
// protocol is data-race-free.
func TestResilSessionConcurrentReplaySingleExecution(t *testing.T) {
	sess := NewResilSessions().Get(9)
	var execs atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _, replayed := sess.Dedup(1, nil)
			if !replayed {
				execs.Add(1)
				time.Sleep(5 * time.Millisecond) // slow handler window
				sess.Store(1, U64(DepthData, 0x42))
				return
			}
			if v, err := resp.AsU64(); err != nil || v != 0x42 {
				t.Errorf("replayed response = %v (type %v), err %v", v, resp.Type, err)
			}
		}()
	}
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("sequence executed %d times, want exactly once", n)
	}
}

// resilEchoServer accepts connections forever and answers each request with
// U64(DepthData, payload[0]+base), with session dedup — a miniature of the
// env/soc servers' resilient serve loop. The base changes per execution of
// a request, so a re-executed (not deduped) replay is detectable.
func resilEchoServer(t *testing.T, ln net.Listener) *ResilSessions {
	t.Helper()
	sessions := NewResilSessions()
	var execs atomic.Uint64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r, w := NewReader(conn), NewWriter(conn)
				var scratch []byte
				for {
					req, err := r.Next()
					if err != nil {
						return
					}
					var sess *ResilSession
					var seq uint32
					if link, rseq, ok := r.Resil(); ok {
						sess, seq = sessions.Get(link), rseq
						w.SetResil(link, r.ResilCRCPayload())
						w.SetResilSeq(rseq)
					}
					var resp Packet
					replayed := false
					if sess != nil {
						resp, scratch, replayed = sess.Dedup(seq, scratch)
					}
					if !replayed {
						resp = U64(DepthData, uint64(req.Payload[0])+execs.Add(1)<<8)
						if sess != nil {
							sess.Store(seq, resp)
						}
					}
					if err := w.WritePacket(resp); err != nil {
						return
					}
					if r.Buffered() == 0 {
						if err := w.Flush(); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return sessions
}

func TestLinkReconnectReplaysWithoutReexecution(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resilEchoServer(t, ln)

	recovered := 0
	l, err := DialLink(ln.Addr().String(), LinkOptions{
		MaxRetries:  4,
		BackoffBase: time.Millisecond,
		CRCPayload:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.OnRecover = func(attempts, replayed int) { recovered++ }

	rpc := func(arg byte) uint64 {
		t.Helper()
		if err := l.Send(Packet{Type: DepthReq, Payload: []byte{arg}}); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		resp, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		v, err := resp.AsU64()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	first := rpc(1)
	// Pipeline two requests, read only the first response, then kill the
	// connection: the unread response must be replayed from the server's
	// session cache, byte-identical (same execution counter), not
	// re-executed.
	if err := l.Send(Packet{Type: DepthReq, Payload: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Send(Packet{Type: DepthReq, Payload: []byte{3}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	resp2, err := l.Next()
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := resp2.AsU64()
	// Simulate mid-exchange connection loss: the conn dies and whatever
	// response bytes were in flight (possibly already buffered) are gone.
	l.conn.Close()
	l.r = NewReader(l.conn)

	resp3, err := l.Next()
	if err != nil {
		t.Fatal(err)
	}
	v3, _ := resp3.AsU64()
	if recovered == 0 {
		t.Fatal("link never reconnected")
	}
	// Execution counters must be strictly sequential: 1, 2, 3 — a
	// re-executed replay would skip.
	for i, v := range []uint64{first, v2, v3} {
		if got := v >> 8; got != uint64(i+1) {
			t.Fatalf("request %d executed as %d (re-execution or loss)", i+1, got)
		}
		if got := v & 0xff; got != uint64(i+1) {
			t.Fatalf("request %d echoed arg %d", i+1, got)
		}
	}
	// And the link keeps working after recovery.
	if v := rpc(4); v&0xff != 4 || v>>8 != 4 {
		t.Fatalf("post-recovery rpc = %#x", v)
	}
}

func TestLinkDeadAfterRetriesBackoffSchedule(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resilEchoServer(t, ln)

	var sleeps []time.Duration
	l, err := DialLink(ln.Addr().String(), LinkOptions{
		MaxRetries:  4,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
		RPCTimeout:  50 * time.Millisecond,
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Hard-kill the server: listener closed, no further dials succeed.
	ln.Close()
	l.conn.Close()
	if err := l.SendU64(DepthReq, 1); err != nil {
		t.Fatal(err)
	}
	err = l.Flush()
	if err == nil {
		_, err = l.Next()
	}
	if err == nil {
		t.Fatal("dead link reported success")
	}
	want := []time.Duration{1, 2, 4, 4}
	for i := range want {
		want[i] *= time.Millisecond
	}
	if fmt.Sprint(sleeps) != fmt.Sprint(want) {
		t.Fatalf("backoff schedule = %v, want %v", sleeps, want)
	}
}

// TestLinkCloseDropsSession: closing a resilient link sends LinkClose, and
// the server drops the link's session; a plain link's close sends nothing.
func TestLinkCloseDropsSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer("test", ln, func() Handler {
		return func(req Packet) Packet { return Packet{Type: RPCAck} }
	})
	go srv.Serve()
	defer srv.Close()
	call := func(l *Link) {
		t.Helper()
		if err := l.Send(Packet{Type: RPCTelemetry}); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Next(); err != nil {
			t.Fatal(err)
		}
	}
	waitSessions := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for srv.sessions.Len() != want {
			if time.Now().After(deadline) {
				t.Fatalf("server holds %d sessions, want %d", srv.sessions.Len(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 3; i++ {
		l, err := DialLink(srv.Addr(), LinkOptions{MaxRetries: 2})
		if err != nil {
			t.Fatal(err)
		}
		call(l)
		waitSessions(1)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		waitSessions(0)
	}
	plain, err := DialLink(srv.Addr(), LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	call(plain)
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.sessions.Len(); n != 0 {
		t.Errorf("a plain link left %d sessions", n)
	}
}
