package soc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"net"
	"sync"

	"repro/internal/obs"
	"repro/internal/packet"
)

// This file implements the synchronizer↔RTL TCP transport of §3.4.1 ("the
// synchronizer ... communicates with FireSim by using a TCP listener"): a
// Server exposes a Machine over TCP, and RemoteRTL implements the core.RTL
// surface against it, enabling the distributed deployments of Table 4.
//
// The wire follows the env link's discipline (DESIGN.md §4.7). Every
// RTLStepped and RTLBatch reply carries the machine status the client
// caches, in one fixed-width codec, and Push defers its ack, so a quantum
// costs two round trips — Pull, then Push and Step in one flush — and the
// steady state allocates nothing at either end. Gob carries only the
// snapshot RPCs (RTLSnap, RTLRestore).

// Server serves one Machine over the packet serve loop, to a single
// synchronizer connection at a time. The machine lock is held for the
// whole of each request.
type Server struct {
	srv *packet.Server
	mu  sync.Mutex
	m   *Machine
	// restorer rebuilds the machine's configuration and program for an
	// RTLRestore — the server-side half of remote snapshot restore. The
	// program state itself arrives in the shipped image; the factory only
	// supplies the (config-derived) empty StateProgram to restore into.
	restorer func() (Config, StateProgram, error)
}

// SetRestorer installs the machine factory used to serve RTLRestore
// requests. Without one, RTLRestore (and RTLSnap against a non-resumable
// machine) fails with an RPC error. Call before Serve.
func (s *Server) SetRestorer(f func() (Config, StateProgram, error)) {
	s.mu.Lock()
	s.restorer = f
	s.mu.Unlock()
}

// SetLog installs the structured logger for accept failures and dropped
// connections. Safe to call while serving; a nil argument silences the
// server.
func (s *Server) SetLog(l *obs.Logger) { s.srv.SetLog(l) }

// NewServer wraps a machine and listens on addr.
func NewServer(m *Machine, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("soc: listening on %s: %w", addr, err)
	}
	return NewServerOn(m, ln), nil
}

// NewServerOn wraps a machine behind an existing listener — the hook the
// chaos suite uses to interpose faultnet between server and clients.
func NewServerOn(m *Machine, ln net.Listener) *Server {
	s := &Server{m: m}
	s.srv = packet.NewServer("RTL", ln, func() packet.Handler {
		sc := &connScratch{}
		return func(req packet.Packet) packet.Packet { return s.handle(req, sc) }
	})
	return s
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close stops the listener.
func (s *Server) Close() error { return s.srv.Close() }

// Serve accepts and serves connections until the listener closes
// (packet.Server.Serve).
func (s *Server) Serve() error { return s.srv.Serve() }

// connScratch is per-connection reply scratch: a reply payload is built
// here under the machine lock and copied into the connection's write buffer
// before the next request is handled, so reuse across requests is safe.
type connScratch struct {
	payload []byte // reply payload build buffer
}

func (s *Server) handle(req packet.Packet, sc *connScratch) packet.Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.Type {
	case packet.RTLStep:
		cycles, err := req.AsU64()
		if err != nil {
			return packet.ErrorReply(err)
		}
		used, err := s.m.Step(cycles)
		if err != nil {
			return packet.ErrorReply(err)
		}
		sc.payload = binary.LittleEndian.AppendUint64(sc.payload[:0], used)
		sc.payload = machineStatus(s.m).appendTo(sc.payload)
		return packet.Packet{Type: packet.RTLStepped, Payload: sc.payload}
	case packet.RTLPush:
		pkts, err := packet.DecodeBatch(req.Payload)
		if err != nil {
			return packet.ErrorReply(err)
		}
		if err := s.m.Push(pkts); err != nil {
			return packet.ErrorReply(err)
		}
		return packet.Packet{Type: packet.RPCAck}
	case packet.RTLPull:
		pkts, err := s.m.Pull()
		if err != nil {
			return packet.ErrorReply(err)
		}
		buf, err := packet.AppendBatch(machineStatus(s.m).appendTo(sc.payload[:0]), pkts)
		if err != nil {
			return packet.ErrorReply(err)
		}
		sc.payload = buf
		return packet.Packet{Type: packet.RTLBatch, Payload: sc.payload}
	case packet.RTLStatus:
		sc.payload = machineStatus(s.m).appendTo(sc.payload[:0])
		return packet.Packet{Type: packet.RTLStatusReply, Payload: sc.payload}
	case packet.RTLSnap:
		st, err := s.m.SnapState()
		if err != nil {
			return packet.ErrorReply(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			return packet.ErrorReply(err)
		}
		return packet.Packet{Type: packet.RTLSnapData, Payload: buf.Bytes()}
	case packet.RTLRestore:
		if s.restorer == nil {
			return packet.ErrorReply(fmt.Errorf("soc: server has no restorer installed (SetRestorer)"))
		}
		var st SnapState
		if err := gob.NewDecoder(bytes.NewReader(req.Payload)).Decode(&st); err != nil {
			return packet.ErrorReply(err)
		}
		cfg, sp, err := s.restorer()
		if err != nil {
			return packet.ErrorReply(err)
		}
		m, err := RestoreMachine(cfg, sp, &st)
		if err != nil {
			return packet.ErrorReply(err)
		}
		s.m.Close()
		s.m = m
		return packet.Packet{Type: packet.RPCAck}
	}
	return packet.ErrorReply(fmt.Errorf("soc: unsupported RTL RPC %v", req.Type))
}

// rtlStatus is the machine status a RemoteRTL caches between calls: all
// that core.RTL and core.EnergyRTL read besides Step, Push and Pull.
type rtlStatus struct {
	cycle  uint64
	done   bool
	stats  Stats
	energy EnergyBreakdown
}

func machineStatus(m *Machine) rtlStatus {
	return rtlStatus{cycle: m.Cycle(), done: m.Done(), stats: m.Stats(), energy: m.EnergyBreakdown()}
}

// statusSize is the width of the status codec, all integers little-endian:
// cycle u64 @0, done u8 @8 (0 or 1), the twelve Stats counters as u64 @9
// (Cycles, ComputeCycles, AccelCycles, IOCycles, IdleCycles, PacketsIn,
// PacketsOut, Syncs, Energy.CorePJ, Energy.AccelPJ, Energy.MemPJ,
// Fingerprint), and the six EnergyBreakdown ledgers as u64 @105
// (Dynamic.CorePJ, .AccelPJ, .MemPJ, then the same three of Static).
const statusSize = 9 + 12*8 + 6*8

// appendTo appends the status codec's encoding of st to dst.
func (st rtlStatus) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, st.cycle)
	var done byte
	if st.done {
		done = 1
	}
	dst = append(dst, done)
	s, e := &st.stats, &st.energy
	for _, v := range [...]uint64{
		s.Cycles, s.ComputeCycles, s.AccelCycles, s.IOCycles, s.IdleCycles,
		s.PacketsIn, s.PacketsOut, s.Syncs,
		s.Energy.CorePJ, s.Energy.AccelPJ, s.Energy.MemPJ, s.Fingerprint,
		e.Dynamic.CorePJ, e.Dynamic.AccelPJ, e.Dynamic.MemPJ,
		e.Static.CorePJ, e.Static.AccelPJ, e.Static.MemPJ,
	} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// decodeStatus decodes one status codec into fresh values: no counter of
// an earlier reply can survive into the result.
func decodeStatus(b []byte) (rtlStatus, error) {
	if len(b) != statusSize {
		return rtlStatus{}, fmt.Errorf("soc: RTL status is %d bytes, want %d", len(b), statusSize)
	}
	if b[8] > 1 {
		return rtlStatus{}, fmt.Errorf("soc: RTL status done flag is %d, want 0 or 1", b[8])
	}
	var v [18]uint64
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(b[9+8*i:])
	}
	return rtlStatus{
		cycle: binary.LittleEndian.Uint64(b),
		done:  b[8] == 1,
		stats: Stats{
			Cycles: v[0], ComputeCycles: v[1], AccelCycles: v[2], IOCycles: v[3], IdleCycles: v[4],
			PacketsIn: v[5], PacketsOut: v[6], Syncs: v[7],
			Energy:      EnergyLedger{CorePJ: v[8], AccelPJ: v[9], MemPJ: v[10]},
			Fingerprint: v[11],
		},
		energy: EnergyBreakdown{
			Dynamic: EnergyLedger{CorePJ: v[12], AccelPJ: v[13], MemPJ: v[14]},
			Static:  EnergyLedger{CorePJ: v[15], AccelPJ: v[16], MemPJ: v[17]},
		},
	}, nil
}

// decodeStepped decodes an RTLStepped payload: the cycles used, then the
// status.
func decodeStepped(b []byte) (uint64, rtlStatus, error) {
	if len(b) != 8+statusSize {
		return 0, rtlStatus{}, fmt.Errorf("soc: RTLStepped payload is %d bytes, want %d", len(b), 8+statusSize)
	}
	st, err := decodeStatus(b[8:])
	if err != nil {
		return 0, rtlStatus{}, err
	}
	return binary.LittleEndian.Uint64(b), st, nil
}

// decodeBatchReply decodes an RTLBatch payload — the status, then the
// packet batch — appending the packets to dst with payloads aliasing b.
func decodeBatchReply(dst []packet.Packet, b []byte) ([]packet.Packet, rtlStatus, error) {
	if len(b) < statusSize {
		return dst, rtlStatus{}, fmt.Errorf("soc: RTLBatch payload is %d bytes, shorter than its %d-byte status", len(b), statusSize)
	}
	st, err := decodeStatus(b[:statusSize])
	if err != nil {
		return dst, rtlStatus{}, err
	}
	pkts, err := packet.SplitBatch(dst, b[statusSize:])
	if err != nil {
		return dst, rtlStatus{}, fmt.Errorf("soc: RTLBatch: %w", err)
	}
	return pkts, st, nil
}

// RemoteRTL is a core.RTL implementation backed by a remote Server. Calls
// that touch the wire are serialized by an internal lock; Cycle, Done,
// Stats and EnergyBreakdown read the status the last of them received. The
// packets Pull returns alias a client-owned arena and are valid until the
// next Pull, like Machine.Pull's.
type RemoteRTL struct {
	mu   sync.Mutex
	link *packet.Link

	trace *obs.TraceContext // nil = no cross-host propagation

	// st is the status of the last reply that carried one (RTLStepped,
	// RTLBatch, RTLStatusReply), decoded into fresh values each time.
	st rtlStatus

	pending  int   // acks owed for deferred pushes
	deferred error // first failure a deferred push ack reported

	push   []byte          // RTLPush payload scratch
	arena  []byte          // copy of the last RTLBatch payload
	pulled []packet.Packet // reused Pull result, aliasing arena
}

// DialOptions configures the RTL client transport; see env.DialOptions.
type DialOptions = packet.LinkOptions

// DialRTL connects to a remote RTL server with default options (bounded
// dial, no reconnect).
func DialRTL(addr string) (*RemoteRTL, error) { return DialRTLWith(addr, DialOptions{}) }

// DialRTLWith connects to a remote RTL server with explicit transport
// options.
func DialRTLWith(addr string, opts DialOptions) (*RemoteRTL, error) {
	l, err := packet.DialLink(addr, opts)
	if err != nil {
		return nil, fmt.Errorf("soc: %w", err)
	}
	r := &RemoteRTL{link: l}
	if err := r.refresh(); err != nil {
		l.Close()
		return nil, err
	}
	return r, nil
}

// SetTrace installs the run's trace context: every subsequent request is
// stamped with the run ID, the context's current quantum sequence, and
// packet.ParentRTLStep, correlating remote RTL traffic with the
// synchronizer's quanta. Call before the co-simulation starts; nil
// disables stamping.
func (r *RemoteRTL) SetTrace(run *obs.TraceContext) {
	r.mu.Lock()
	r.trace = run
	if run == nil {
		r.link.SetTrace(0, 0, 0)
	}
	r.mu.Unlock()
}

// Close terminates the connection and disables reconnection.
func (r *RemoteRTL) Close() error { return r.link.Close() }

// stamp refreshes the link's trace stamp for the current quantum. Caller
// holds r.mu.
func (r *RemoteRTL) stamp() {
	if r.trace != nil {
		r.link.SetTrace(r.trace.RunID(), uint32(r.trace.Seq()), packet.ParentRTLStep)
	}
}

// call sends req and returns its reply, which must be of type want. The
// reply payload aliases the link's read buffer until the next read. Caller
// holds r.mu.
func (r *RemoteRTL) call(req packet.Packet, want packet.Type) (packet.Packet, error) {
	r.stamp()
	if err := r.link.Send(req); err != nil {
		return packet.Packet{}, err
	}
	return r.roundTrip(want)
}

// roundTrip flushes everything buffered — a deferred push leaves in the
// same segment as the request behind it — collects the owed push acks, and
// reads the request's reply. The reply is consumed before a deferred
// failure is reported, keeping the request/response stream in sync.
// Caller holds r.mu.
func (r *RemoteRTL) roundTrip(want packet.Type) (packet.Packet, error) {
	if err := r.link.Flush(); err != nil {
		return packet.Packet{}, err
	}
	for r.pending > 0 {
		ack, err := r.link.Next()
		if err != nil {
			return packet.Packet{}, err
		}
		r.pending--
		switch ack.Type {
		case packet.RPCAck:
		case packet.RPCError:
			if r.deferred == nil {
				r.deferred = fmt.Errorf("soc: remote RTL (deferred push): %s", ack.Payload)
			}
		default:
			return packet.Packet{}, fmt.Errorf("soc: remote RTL answered a push with %v", ack.Type)
		}
	}
	resp, err := r.link.Next()
	if err != nil {
		return packet.Packet{}, err
	}
	if err := r.takeDeferred(); err != nil {
		return packet.Packet{}, err
	}
	if resp.Type == packet.RPCError {
		return packet.Packet{}, fmt.Errorf("soc: remote RTL: %s", resp.Payload)
	}
	if resp.Type != want {
		return packet.Packet{}, fmt.Errorf("soc: remote RTL answered with %v, want %v", resp.Type, want)
	}
	return resp, nil
}

// takeDeferred returns the recorded deferred-push failure once. Caller
// holds r.mu.
func (r *RemoteRTL) takeDeferred() error {
	err := r.deferred
	r.deferred = nil
	return err
}

// Step implements core.RTL. The reply carries the status after the
// quantum, so Cycle, Done, Stats and EnergyBreakdown are current without a
// further round trip.
func (r *RemoteRTL) Step(cycles uint64) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stamp()
	if err := r.link.SendU64(packet.RTLStep, cycles); err != nil {
		return 0, err
	}
	resp, err := r.roundTrip(packet.RTLStepped)
	if err != nil {
		return 0, err
	}
	used, st, err := decodeStepped(resp.Payload)
	if err != nil {
		return 0, err
	}
	r.st = st
	return used, nil
}

// Push implements core.RTL. The batch is buffered, not flushed, and its ack
// is deferred: it leaves in one segment with the next request (Step, in
// the synchronizer's quantum), whose call collects the ack and reports a
// failed push once.
func (r *RemoteRTL) Push(pkts []packet.Packet) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.takeDeferred(); err != nil {
		return err
	}
	buf, err := packet.AppendBatch(r.push[:0], pkts)
	if err != nil {
		return err
	}
	r.push = buf
	r.stamp()
	if err := r.link.Send(packet.Packet{Type: packet.RTLPush, Payload: buf}); err != nil {
		return err
	}
	r.pending++
	return nil
}

// Pull implements core.RTL. The reply carries the status after the drain.
func (r *RemoteRTL) Pull() ([]packet.Packet, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	resp, err := r.call(packet.Packet{Type: packet.RTLPull}, packet.RTLBatch)
	if err != nil {
		return nil, err
	}
	// The reply aliases the link's read buffer; the packets handed out
	// alias the arena instead, which only the next Pull overwrites.
	r.arena = append(r.arena[:0], resp.Payload...)
	pkts, st, err := decodeBatchReply(r.pulled[:0], r.arena)
	if err != nil {
		return nil, err
	}
	r.pulled, r.st = pkts, st
	return pkts, nil
}

// refresh fetches the status with an RTLStatus round trip — needed only
// where no step or pull reply has brought it: on connect and after a
// restore. Caller holds r.mu (or owns r exclusively).
func (r *RemoteRTL) refresh() error {
	resp, err := r.call(packet.Packet{Type: packet.RTLStatus}, packet.RTLStatusReply)
	if err != nil {
		return err
	}
	st, err := decodeStatus(resp.Payload)
	if err != nil {
		return err
	}
	r.st = st
	return nil
}

// SnapState captures the remote machine's state over the wire, so local
// snapshot images can embed a TCP-remote RTL exactly like an in-process one.
func (r *RemoteRTL) SnapState() (*SnapState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	resp, err := r.call(packet.Packet{Type: packet.RTLSnap}, packet.RTLSnapData)
	if err != nil {
		return nil, err
	}
	var st SnapState
	if err := gob.NewDecoder(bytes.NewReader(resp.Payload)).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Restore ships a machine image to the remote server, which rebuilds its
// machine from it (the server needs a restorer installed; see SetRestorer).
func (r *RemoteRTL) Restore(st *SnapState) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.call(packet.Packet{Type: packet.RTLRestore, Payload: buf.Bytes()}, packet.RPCAck); err != nil {
		return err
	}
	return r.refresh()
}

// Cycle implements core.RTL (from the last status received).
func (r *RemoteRTL) Cycle() uint64 { return r.st.cycle }

// Done implements core.RTL (from the last status received).
func (r *RemoteRTL) Done() bool { return r.st.done }

// Stats implements core.RTL (from the last status received).
func (r *RemoteRTL) Stats() Stats { return r.st.stats }

// EnergyBreakdown implements core.EnergyRTL (from the last status
// received): the remote machine's dynamic ledger plus server-computed
// static energy.
func (r *RemoteRTL) EnergyBreakdown() EnergyBreakdown { return r.st.energy }
