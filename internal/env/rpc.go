package env

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/render"
	"repro/internal/sensor"
)

// This file implements the environment simulator's remote API — the
// AirSim-RPC stand-in (§3.1, Table 4): a Server exposes a Sim over TCP and
// Client implements Env against such a server, so the synchronizer can run
// on a different host than the environment.
//
// The wire protocol is pipelined: requests and responses are strictly
// ordered on one connection, so a client may write several requests before
// reading any response. Client exploits this twice. Commands whose only
// result is an acknowledgement (RPCStepFrames, CmdVel) return as soon as
// the request is flushed — the remote simulator burns its quantum while
// the caller overlaps other work (the RTL quantum, in the synchronizer) —
// and the deferred acks are collected by the next synchronous call.
// FetchSensors issues a whole run of sensor requests as one batched
// round-trip. Framing is buffered on both sides (packet.Reader/Writer)
// with one flush per message batch, and every payload codec on the
// steady-state path (camera, IMU, depth, fixed-width Telemetry) reuses
// scratch buffers, so a quantum's worth of RPC traffic makes zero heap
// allocations at each end.

// Server serves one Sim to network clients over the packet serve loop.
// Multiple clients may connect; they share the single simulator under a
// lock held only around simulator access, never across network I/O, so a
// slow client cannot stall other connections.
type Server struct {
	srv *packet.Server
	mu  sync.Mutex
	sim *Sim
}

// NewServer wraps a simulator and listens on addr (e.g. ":41451", the
// AirSim default port).
func NewServer(sim *Sim, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("env: listening on %s: %w", addr, err)
	}
	return NewServerOn(sim, ln), nil
}

// NewServerOn wraps a simulator behind an existing listener — the hook the
// chaos suite uses to interpose faultnet between server and clients.
func NewServerOn(sim *Sim, ln net.Listener) *Server {
	s := &Server{sim: sim}
	s.srv = packet.NewServer("env", ln, func() packet.Handler {
		sc := &connScratch{}
		return func(req packet.Packet) packet.Packet { return s.handle(req, sc) }
	})
	return s
}

// SetObs installs request/byte accounting for the server. Safe to call
// while connections are being served; a nil argument disables it.
func (s *Server) SetObs(o *obs.EnvServerObs) { s.srv.SetObs(o) }

// SetLog installs the structured logger for connection lifecycle events.
// Safe to call while serving; a nil argument silences the server.
func (s *Server) SetLog(l *obs.Logger) { s.srv.SetLog(l) }

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close stops the listener.
func (s *Server) Close() error { return s.srv.Close() }

// Serve accepts and serves connections until the listener is closed
// (packet.Server.Serve).
func (s *Server) Serve() error { return s.srv.Serve() }

// connScratch is per-connection response scratch: payload bytes are built
// here (under the sim lock when they snapshot sim state) and copied into
// the connection's write buffer before the next request is handled, so
// reuse across requests is safe.
type connScratch struct {
	cam     []byte // quantized camera pixels
	payload []byte // response payload build buffer
}

func (s *Server) handle(req packet.Packet, sc *connScratch) packet.Packet {
	switch req.Type {
	case packet.RPCStepFrames:
		n, err := req.AsU64()
		if err != nil {
			return packet.ErrorReply(err)
		}
		s.mu.Lock()
		err = s.sim.StepFrames(int(n))
		s.mu.Unlock()
		if err != nil {
			return packet.ErrorReply(err)
		}
		return packet.Packet{Type: packet.RPCAck}
	case packet.RPCFrameRate:
		s.mu.Lock()
		hz := s.sim.FrameRate()
		s.mu.Unlock()
		return packet.U64(packet.RPCFrameRate, uint64(hz*1000))
	case packet.RPCReset:
		if len(req.Payload) != 32 {
			return packet.ErrorReply(fmt.Errorf("env: RPCReset payload must be 32 bytes"))
		}
		f := func(i int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(req.Payload[i*8:]))
		}
		s.mu.Lock()
		err := s.sim.Reset(f(0), f(1), f(2), f(3))
		s.mu.Unlock()
		if err != nil {
			return packet.ErrorReply(err)
		}
		return packet.Packet{Type: packet.RPCAck}
	case packet.RPCTelemetry:
		s.mu.Lock()
		tm, err := s.sim.Telemetry()
		s.mu.Unlock()
		if err != nil {
			return packet.ErrorReply(err)
		}
		sc.payload = AppendTelemetry(sc.payload[:0], tm)
		return packet.Packet{Type: packet.RPCTelemetry, Payload: sc.payload}
	case packet.CamReq:
		s.mu.Lock()
		pix, w, h := s.sim.FrameBytesInto(sc.cam)
		sc.cam = pix
		s.mu.Unlock()
		payload, err := packet.CamFrame{W: w, H: h, Pix: sc.cam}.AppendPayload(sc.payload[:0])
		if err != nil {
			return packet.ErrorReply(err)
		}
		sc.payload = payload
		return packet.Packet{Type: packet.CamData, Payload: sc.payload}
	case packet.IMUReq:
		s.mu.Lock()
		r, err := s.sim.GetIMU()
		s.mu.Unlock()
		if err != nil {
			return packet.ErrorReply(err)
		}
		sc.payload = packet.IMU{
			Accel:   [3]float64{r.Accel.X, r.Accel.Y, r.Accel.Z},
			Gyro:    [3]float64{r.Gyro.X, r.Gyro.Y, r.Gyro.Z},
			RPY:     [3]float64{r.Roll, r.Pitch, r.Yaw},
			TimeSec: r.TimeSec,
		}.AppendPayload(sc.payload[:0])
		return packet.Packet{Type: packet.IMUData, Payload: sc.payload}
	case packet.DepthReq:
		s.mu.Lock()
		d, err := s.sim.GetDepth()
		s.mu.Unlock()
		if err != nil {
			return packet.ErrorReply(err)
		}
		sc.payload = packet.Depth{Meters: d}.AppendPayload(sc.payload[:0])
		return packet.Packet{Type: packet.DepthData, Payload: sc.payload}
	case packet.CmdVel:
		cmd, err := packet.UnmarshalCmd(req)
		if err != nil {
			return packet.ErrorReply(err)
		}
		s.mu.Lock()
		err = s.sim.SetVelocity(cmd.VForward, cmd.VLateral, cmd.YawRate)
		s.mu.Unlock()
		if err != nil {
			return packet.ErrorReply(err)
		}
		return packet.Packet{Type: packet.RPCAck}
	}
	return packet.ErrorReply(fmt.Errorf("env: unsupported RPC %v", req.Type))
}

// Client is an Env implementation backed by a remote Server. Methods are
// serialized by an internal lock; objects returned by GetImage and
// FetchSensors reuse client-owned buffers and are valid only until the
// next call of the same method.
type Client struct {
	mu   sync.Mutex
	link *packet.Link
	rate float64

	pending  int   // acks owed for deferred commands (StepFrames, CmdVel)
	deferred error // first error surfaced by a deferred ack
	obs      *obs.RPCObs
	trace    *obs.TraceContext // nil = no cross-host propagation

	scratch  []byte          // request payload scratch (CmdVel, Reset)
	img      *render.Image   // reused GetImage decode target
	batchBuf []byte          // payload arena for FetchSensors responses
	batch    []packet.Packet // reused FetchSensors result slice
	spans    []span          // reused FetchSensors offset list
}

type span struct {
	t          packet.Type
	start, end int
}

var _ Env = (*Client)(nil)
var _ SensorBatcher = (*Client)(nil)

// DialOptions configures the client transport: a dial timeout, a per-RPC
// I/O deadline, and — when MaxRetries > 0 — transparent reconnect with
// capped exponential backoff and idempotent replay of unanswered requests.
// The zero value reproduces the plain (pre-resilience) transport with a
// bounded dial.
type DialOptions = packet.LinkOptions

// Dial connects to an environment server with default options (bounded
// dial, no reconnect).
func Dial(addr string) (*Client, error) { return DialWith(addr, DialOptions{}) }

// DialWith connects to an environment server with explicit transport
// options.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	l, err := packet.DialLink(addr, opts)
	if err != nil {
		return nil, fmt.Errorf("env: %w", err)
	}
	c := &Client{link: l}
	l.OnRecover = c.onRecover
	l.OnChecksum = c.onChecksum
	resp, err := c.call(packet.Packet{Type: packet.RPCFrameRate}, packet.ParentNone)
	if err != nil {
		l.Close()
		return nil, err
	}
	mhz, err := resp.AsU64()
	if err != nil {
		l.Close()
		return nil, err
	}
	// The frame rate is cached, so reconnects skip the handshake: replaying
	// the window is the only traffic a restored connection needs.
	c.rate = float64(mhz) / 1000
	return c, nil
}

// Close terminates the connection and disables reconnection.
func (c *Client) Close() error { return c.link.Close() }

// onRecover/onChecksum feed link resilience events into the RPC metrics.
// The link only invokes them from calls made under c.mu, so reading c.obs
// is safe.
func (c *Client) onRecover(attempts, replayed int) {
	if c.obs != nil {
		c.obs.Reconnects.Inc()
		c.obs.ReplayedFrames.Add(uint64(replayed))
	}
}

func (c *Client) onChecksum() {
	if c.obs != nil {
		c.obs.ChecksumErrors.Inc()
	}
}

// SetObs installs RPC traffic accounting (round-trips, deferred acks,
// batched fetches, bytes in/out). Call before the co-simulation starts; a
// nil argument disables it.
func (c *Client) SetObs(o *obs.RPCObs) {
	c.mu.Lock()
	c.obs = o
	c.mu.Unlock()
}

// SetTrace installs the run's trace context: every subsequent request is
// stamped with the run ID, the context's current quantum sequence, and a
// parent tag naming the quantum phase that issued it (packet.FlagTrace),
// so the env server's spans correlate with the synchronizer's quanta
// across hosts. Call before the co-simulation starts; nil disables
// stamping.
func (c *Client) SetTrace(run *obs.TraceContext) {
	c.mu.Lock()
	c.trace = run
	if run == nil {
		c.link.SetTrace(0, 0, 0)
	}
	c.mu.Unlock()
}

// stamp refreshes the link's trace stamp for the current quantum.
// Caller holds c.mu.
func (c *Client) stamp(parent uint32) {
	if c.trace != nil {
		c.link.SetTrace(c.trace.RunID(), uint32(c.trace.Seq()), parent)
	}
}

// countOut/countIn account framed traffic; nil obs reduces them to one
// branch each, preserving the zero-allocation steady state.
func (c *Client) countOut(n int) {
	if c.obs != nil {
		c.obs.BytesOut.Add(uint64(n))
	}
}

func (c *Client) countIn(n int) {
	if c.obs != nil {
		c.obs.BytesIn.Add(uint64(n))
	}
}

// call performs one synchronous round-trip stamped with parent. The
// response payload aliases the read buffer and must be consumed before the
// next read.
func (c *Client) call(req packet.Packet, parent uint32) (packet.Packet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stamp(parent)
	if err := c.link.Send(req); err != nil {
		return packet.Packet{}, err
	}
	c.countOut(req.Size())
	return c.roundTrip()
}

// roundTrip flushes buffered requests, drains deferred acks, and reads the
// matching response. The response is always consumed before a deferred
// failure is surfaced, keeping the request/response stream in sync.
// Caller holds c.mu.
func (c *Client) roundTrip() (packet.Packet, error) {
	var t0 time.Time
	if c.obs != nil {
		t0 = time.Now()
	}
	if err := c.link.Flush(); err != nil {
		return packet.Packet{}, err
	}
	if err := c.drainAcks(); err != nil {
		return packet.Packet{}, err
	}
	resp, err := c.link.Next()
	if err != nil {
		return packet.Packet{}, err
	}
	if c.obs != nil {
		c.obs.ObserveRoundTrip(t0, c.trace.Seq(), c.trace != nil)
		c.countIn(resp.Size())
	}
	if err := c.takeDeferred(); err != nil {
		return packet.Packet{}, err
	}
	if resp.Type == packet.RPCError {
		return packet.Packet{}, fmt.Errorf("env: remote: %s", resp.Payload)
	}
	return resp, nil
}

// drainAcks collects the acks owed for deferred commands, recording the
// first failure for takeDeferred. Only transport errors are returned.
// Caller holds c.mu.
func (c *Client) drainAcks() error {
	for c.pending > 0 {
		resp, err := c.link.Next()
		if err != nil {
			return err
		}
		c.pending--
		c.countIn(resp.Size())
		if resp.Type == packet.RPCError && c.deferred == nil {
			c.deferred = fmt.Errorf("env: remote (deferred): %s", resp.Payload)
		}
	}
	return nil
}

// takeDeferred returns the recorded deferred-command failure once.
// Caller holds c.mu.
func (c *Client) takeDeferred() error {
	err := c.deferred
	c.deferred = nil
	return err
}

// deferCommand writes an ack-only command, flushes it so the server starts
// working immediately, and returns without waiting for the ack.
func (c *Client) deferCommand(write func() error) error {
	if err := c.takeDeferred(); err != nil {
		return err
	}
	if err := write(); err != nil {
		return err
	}
	c.pending++
	if c.obs != nil {
		c.obs.DeferredCmds.Inc()
	}
	return c.link.Flush()
}

// StepFrames implements Env. The request is flushed but its ack is
// deferred: the remote simulator steps concurrently with whatever the
// caller does next, and the ack (or its error) is collected by the next
// synchronous call.
func (c *Client) StepFrames(n int) error {
	if n < 0 {
		// Mirror the server-side validation locally so the error is
		// synchronous despite the deferred ack.
		return fmt.Errorf("env: cannot step %d frames", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stamp(packet.ParentEnvStep)
	return c.deferCommand(func() error {
		if err := c.link.SendU64(packet.RPCStepFrames, uint64(n)); err != nil {
			return err
		}
		c.countOut(packet.HeaderSize + 8)
		return nil
	})
}

// FrameRate implements Env.
func (c *Client) FrameRate() float64 { return c.rate }

// GetImage implements Env. The returned image reuses a client-owned buffer
// and is valid until the next GetImage call.
func (c *Client) GetImage() (*render.Image, error) {
	resp, err := c.call(packet.Packet{Type: packet.CamReq}, packet.ParentExchange)
	if err != nil {
		return nil, err
	}
	frame, err := packet.UnmarshalCamFrame(resp)
	if err != nil {
		return nil, err
	}
	if c.img == nil || c.img.W != frame.W || c.img.H != frame.H {
		c.img = render.NewImage(frame.W, frame.H)
	}
	for i, b := range frame.Pix {
		c.img.Pix[i] = float32(b) / 255
	}
	return c.img, nil
}

// GetIMU implements Env.
func (c *Client) GetIMU() (sensor.IMUReading, error) {
	resp, err := c.call(packet.Packet{Type: packet.IMUReq}, packet.ParentExchange)
	if err != nil {
		return sensor.IMUReading{}, err
	}
	m, err := packet.UnmarshalIMU(resp)
	if err != nil {
		return sensor.IMUReading{}, err
	}
	var r sensor.IMUReading
	r.Accel.X, r.Accel.Y, r.Accel.Z = m.Accel[0], m.Accel[1], m.Accel[2]
	r.Gyro.X, r.Gyro.Y, r.Gyro.Z = m.Gyro[0], m.Gyro[1], m.Gyro[2]
	r.Roll, r.Pitch, r.Yaw = m.RPY[0], m.RPY[1], m.RPY[2]
	r.TimeSec = m.TimeSec
	return r, nil
}

// GetDepth implements Env.
func (c *Client) GetDepth() (float64, error) {
	resp, err := c.call(packet.Packet{Type: packet.DepthReq}, packet.ParentExchange)
	if err != nil {
		return 0, err
	}
	d, err := packet.UnmarshalDepth(resp)
	if err != nil {
		return 0, err
	}
	return d.Meters, nil
}

// FetchSensors implements SensorBatcher: all requests go out in one
// flush and all responses return in one read pass — one network
// round-trip for a whole synchronization boundary's sensor traffic. The
// returned packets alias a client-owned arena and are valid until the
// next FetchSensors call.
func (c *Client) FetchSensors(reqs []packet.Type) ([]packet.Packet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t0 time.Time
	if c.obs != nil {
		t0 = time.Now()
	}
	c.stamp(packet.ParentExchange)
	for _, t := range reqs {
		switch t {
		case packet.CamReq, packet.IMUReq, packet.DepthReq:
		default:
			return nil, fmt.Errorf("env: %v is not a sensor request", t)
		}
		if err := c.link.Send(packet.Packet{Type: t}); err != nil {
			return nil, err
		}
		c.countOut(packet.HeaderSize)
	}
	if err := c.link.Flush(); err != nil {
		return nil, err
	}
	if err := c.drainAcks(); err != nil {
		return nil, err
	}
	// Copy each response into the arena before the next read invalidates
	// it; build the packet views only once the arena stops growing.
	c.batchBuf = c.batchBuf[:0]
	c.spans = c.spans[:0]
	var firstErr error
	for range reqs {
		resp, err := c.link.Next()
		if err != nil {
			return nil, err
		}
		c.countIn(resp.Size())
		if resp.Type == packet.RPCError {
			// Keep draining so the stream stays in sync.
			if firstErr == nil {
				firstErr = fmt.Errorf("env: remote: %s", resp.Payload)
			}
			continue
		}
		start := len(c.batchBuf)
		c.batchBuf = append(c.batchBuf, resp.Payload...)
		c.spans = append(c.spans, span{resp.Type, start, len(c.batchBuf)})
	}
	if c.obs != nil {
		c.obs.BatchedFetches.Inc()
		c.obs.BatchedSensors.Add(uint64(len(reqs)))
		c.obs.ObserveRoundTrip(t0, c.trace.Seq(), c.trace != nil)
	}
	if err := c.takeDeferred(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	c.batch = c.batch[:0]
	for _, s := range c.spans {
		c.batch = append(c.batch, packet.Packet{Type: s.t, Payload: c.batchBuf[s.start:s.end]})
	}
	return c.batch, nil
}

// SetVelocity implements Env. Like StepFrames, the ack is deferred.
func (c *Client) SetVelocity(forward, lateral, yawRate float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stamp(packet.ParentExchange)
	return c.deferCommand(func() error {
		c.scratch = packet.Cmd{VForward: forward, VLateral: lateral, YawRate: yawRate}.AppendPayload(c.scratch[:0])
		p := packet.Packet{Type: packet.CmdVel, Payload: c.scratch}
		if err := c.link.Send(p); err != nil {
			return err
		}
		c.countOut(p.Size())
		return nil
	})
}

// Reset implements Env.
func (c *Client) Reset(x, y, z, yaw float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stamp(packet.ParentNone)
	c.scratch = c.scratch[:0]
	for _, v := range [...]float64{x, y, z, yaw} {
		c.scratch = binary.LittleEndian.AppendUint64(c.scratch, math.Float64bits(v))
	}
	if err := c.link.Send(packet.Packet{Type: packet.RPCReset, Payload: c.scratch}); err != nil {
		return err
	}
	c.countOut(packet.HeaderSize + len(c.scratch))
	_, err := c.roundTrip()
	return err
}

// Telemetry implements Env.
func (c *Client) Telemetry() (Telemetry, error) {
	resp, err := c.call(packet.Packet{Type: packet.RPCTelemetry}, packet.ParentEnvStep)
	if err != nil {
		return Telemetry{}, err
	}
	return DecodeTelemetry(resp.Payload)
}
