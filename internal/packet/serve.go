package packet

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The one serve loop behind both simulators' TCP servers (DESIGN.md §4.7,
// §7.4): env.Server, the AirSim-RPC stand-in, and soc.Server, the FireSim
// TCP listener, supply only a per-connection request handler. Accepting,
// framing, exactly-once replay, flush-when-drained and request accounting
// live here.

// Handler answers one request. A Server opens one Handler per connection,
// so per-connection scratch lives in its closure: the loop copies each
// response into the connection's write buffer before the next call, so a
// response payload may alias that scratch.
type Handler func(req Packet) Packet

// Server accepts connections on a listener and serves each with its own
// Handler.
type Server struct {
	name string // names the server in log messages ("env", "RTL")
	ln   net.Listener
	open func() Handler
	// sessions holds per-link replay state for resilient clients: a
	// replayed request is answered from the cached response instead of
	// re-executing, which would advance the simulator twice and fork the
	// trajectory.
	sessions *ResilSessions
	log      atomic.Pointer[obs.Logger]       // nil = silent
	obs      atomic.Pointer[obs.EnvServerObs] // nil = no request accounting
}

// NewServer serves ln, opening a Handler per connection with open; name
// prefixes the server's log messages.
func NewServer(name string, ln net.Listener, open func() Handler) *Server {
	return &Server{name: name, ln: ln, open: open, sessions: NewResilSessions()}
}

// SetLog installs the structured logger for accept failures, checksum
// drops and connection lifecycle events. Safe to call while serving; nil
// silences the server.
func (s *Server) SetLog(l *obs.Logger) { s.log.Store(l) }

// SetObs installs request accounting (requests, bytes, replay hits,
// latency, and a serve span per request). Safe to call while serving; nil
// disables it.
func (s *Server) SetObs(o *obs.EnvServerObs) { s.obs.Store(o) }

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener.
func (s *Server) Close() error { return s.ln.Close() }

// Serve accepts and serves connections until the listener is closed.
// Transient accept failures (EMFILE, ECONNABORTED, injected chaos) are
// logged and retried with capped backoff, 5 ms doubling to 1 s, instead of
// killing the serve goroutine mid-sweep; Serve returns only when the
// listener itself is closed.
func (s *Server) Serve() error {
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff < time.Second {
				backoff *= 2
			}
			s.log.Load().Warn(s.name+" server accept failed; retrying",
				obs.Str("err", err.Error()), obs.Str("backoff", backoff.String()))
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	// Lifecycle fields are built only for a debug logger: every flight of
	// a sweep over TCP dials afresh.
	if l := s.log.Load(); l.Enabled(obs.LevelDebug) {
		remote := conn.RemoteAddr().String()
		l.Debug(s.name+" client connected", obs.Str("remote", remote))
		defer l.Debug(s.name+" client disconnected", obs.Str("remote", remote))
	}
	r := NewReader(conn)
	w := NewWriter(conn)
	handle := s.open()
	var replay []byte // replayed-response copy buffer (session cache hits)
	for {
		req, err := r.Next()
		if err != nil {
			// A checksum failure means framing alignment is gone; dropping
			// the connection makes the resilient client reconnect and
			// replay, which is the recovery path.
			if errors.Is(err, ErrChecksum) {
				s.log.Load().Warn(s.name+" request failed checksum; dropping connection",
					obs.Str("remote", conn.RemoteAddr().String()), obs.Str("err", err.Error()))
			}
			return
		}
		o := s.obs.Load()
		var t0 time.Time
		if o != nil {
			t0 = time.Now()
		}
		// Resilient clients stamp every request with a (link, seq) pair.
		// Mirror it onto the response, and answer a replayed sequence from
		// the session cache — byte-identical to the original response —
		// instead of re-executing it.
		var sess *ResilSession
		var seq uint32
		if link, rseq, ok := r.Resil(); ok {
			sess, seq = s.sessions.Get(link), rseq
			w.SetResil(link, r.ResilCRCPayload())
			w.SetResilSeq(rseq)
		} else {
			w.SetResil(0, false)
		}
		var resp Packet
		replayed := false
		if sess != nil {
			resp, replay, replayed = sess.Dedup(seq, replay)
		}
		if replayed {
			if o != nil {
				o.ReplayHits.Inc()
			}
		} else {
			resp = handle(req)
			if sess != nil {
				sess.Store(seq, resp)
			}
		}
		if err := w.WritePacket(resp); err != nil {
			return
		}
		if o != nil {
			// The request's trace context (stamped by the synchronizer's
			// client) tags the serve span with the quantum sequence that
			// issued it — the server half of cross-host correlation.
			runID, qseq, _ := r.Trace()
			o.ObserveRequest(serveSpanName(req.Type), runID, uint64(qseq), t0)
			o.Requests.Inc()
			o.BytesIn.Add(uint64(req.Size()))
			o.BytesOut.Add(uint64(resp.Size()))
		}
		// Flush only when no further request is already buffered: a
		// pipelined batch (a deferred command and the request behind it)
		// gets all its responses in one segment, a lone request is answered
		// immediately, and flushing before blocking in Next keeps the
		// protocol deadlock-free.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// ErrorReply is the RPCError response carrying err's message.
func ErrorReply(err error) Packet {
	return Packet{Type: RPCError, Payload: []byte(err.Error())}
}

// serveSpanName maps a request type to its static serve-span name —
// constants, so tracing a request never allocates.
func serveSpanName(t Type) string {
	switch t {
	case RPCStepFrames:
		return "serve.step_frames"
	case RPCFrameRate:
		return "serve.frame_rate"
	case RPCReset:
		return "serve.reset"
	case RPCTelemetry:
		return "serve.telemetry"
	case CamReq:
		return "serve.cam"
	case IMUReq:
		return "serve.imu"
	case DepthReq:
		return "serve.depth"
	case CmdVel:
		return "serve.cmd_vel"
	}
	return "serve.other"
}
