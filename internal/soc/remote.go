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
// RTLStepped, RTLBatch and RTLRunMarks reply carries the machine status
// the client caches, in one fixed-width codec, and Push defers its ack.
// The status counts the packets left in the bridge's TX queue, so Pull
// answers an empty batch locally when the last step left none, and an
// empty Push sends nothing: a quantum whose previous step left TX empty
// costs one round trip (the Step), and one with SoC output two (Pull, then
// Push and Step in one flush). StepRun grants a run of such quiet quanta
// in one round trip (RTLStepRun), its reply carrying one mark per quantum
// before the status. The steady state allocates nothing at either end.
// Gob carries only the snapshot RPCs (RTLSnap, RTLRestore).

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

// Handler opens the handler a new connection is served with
// (packet.Server.Handler).
func (s *Server) Handler() packet.Handler { return s.srv.Handler() }

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
	payload []byte                    // reply payload build buffer
	marks   [MaxRunQuanta]QuantumMark // an RTLStepRun's marks
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
	case packet.RTLStepRun:
		cycles, count, err := decodeRunRequest(req.Payload)
		if err != nil {
			return packet.ErrorReply(err)
		}
		n, err := s.m.StepRun(cycles, sc.marks[:count])
		if err != nil {
			return packet.ErrorReply(err)
		}
		sc.payload = appendRunMarks(sc.payload[:0], sc.marks[:n], machineStatus(s.m))
		return packet.Packet{Type: packet.RTLRunMarks, Payload: sc.payload}
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
		st, err := decodeSnap(req.Payload)
		if err != nil {
			return packet.ErrorReply(err)
		}
		cfg, sp, err := s.restorer()
		if err != nil {
			return packet.ErrorReply(err)
		}
		m, err := RestoreMachine(cfg, sp, st)
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
// that core.RTL and core.EnergyRTL read besides Step, Push and Pull, and
// the number of packets waiting in the bridge's TX queue, which tells Pull
// whether the drain can be answered without the wire.
type rtlStatus struct {
	cycle  uint64
	done   bool
	stats  Stats
	energy EnergyBreakdown
	txLen  uint64
}

func machineStatus(m *Machine) rtlStatus {
	return rtlStatus{cycle: m.Cycle(), done: m.Done(), stats: m.Stats(), energy: m.EnergyBreakdown(),
		txLen: uint64(m.br.PeekTxLen())}
}

// statusSize is the width of the status codec, all integers little-endian:
// cycle u64 @0, done u8 @8 (0 or 1), the twelve Stats counters as u64 @9
// (Cycles, ComputeCycles, AccelCycles, IOCycles, IdleCycles, PacketsIn,
// PacketsOut, Syncs, Energy.CorePJ, Energy.AccelPJ, Energy.MemPJ,
// Fingerprint), the six EnergyBreakdown ledgers as u64 @105
// (Dynamic.CorePJ, .AccelPJ, .MemPJ, then the same three of Static), and
// the TX queue's packet count as u64 @153. A status of any other length is
// rejected.
const statusSize = 9 + 12*8 + 6*8 + 8

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
		st.txLen,
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
	var v [19]uint64
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
		txLen: v[18],
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
// The status is taken after the drain, so its TX count must be 0, which
// also rejects a shorter status followed by a batch: the first packet
// header would land in the count.
func decodeBatchReply(dst []packet.Packet, b []byte) ([]packet.Packet, rtlStatus, error) {
	if len(b) < statusSize {
		return dst, rtlStatus{}, fmt.Errorf("soc: RTLBatch payload is %d bytes, shorter than its %d-byte status", len(b), statusSize)
	}
	st, err := decodeStatus(b[:statusSize])
	if err != nil {
		return dst, rtlStatus{}, err
	}
	if st.txLen != 0 {
		return dst, rtlStatus{}, fmt.Errorf("soc: RTLBatch status reports %d packets left in the drained TX queue", st.txLen)
	}
	pkts, err := packet.SplitBatch(dst, b[statusSize:])
	if err != nil {
		return dst, rtlStatus{}, fmt.Errorf("soc: RTLBatch: %w", err)
	}
	return pkts, st, nil
}

// runRequestSize is the width of an RTLStepRun payload: the cycles per
// quantum and the most quanta to step, both u64.
const runRequestSize = 16

// decodeRunRequest decodes an RTLStepRun payload. The count must be 1 to
// MaxRunQuanta: the server steps nothing for any other.
func decodeRunRequest(b []byte) (cycles uint64, count int, err error) {
	if len(b) != runRequestSize {
		return 0, 0, fmt.Errorf("soc: RTLStepRun payload is %d bytes, want %d", len(b), runRequestSize)
	}
	n := binary.LittleEndian.Uint64(b[8:])
	if n == 0 || n > MaxRunQuanta {
		return 0, 0, fmt.Errorf("soc: RTLStepRun asks for %d quanta, want 1 to %d", n, MaxRunQuanta)
	}
	return binary.LittleEndian.Uint64(b), int(n), nil
}

// markSize is the width of one quantum mark in an RTLRunMarks payload: the
// cycle, the engine fingerprint and the total energy in pJ, all u64.
const markSize = 3 * 8

// appendRunMarks appends an RTLRunMarks payload to dst: the count of
// quanta stepped, their marks, then the status after the last.
func appendRunMarks(dst []byte, marks []QuantumMark, st rtlStatus) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(marks)))
	for _, mk := range marks {
		dst = binary.LittleEndian.AppendUint64(dst, mk.Cycle)
		dst = binary.LittleEndian.AppendUint64(dst, mk.Fingerprint)
		dst = binary.LittleEndian.AppendUint64(dst, mk.EnergyPJ)
	}
	return st.appendTo(dst)
}

// decodeRunMarks decodes an RTLRunMarks payload answering a request for
// len(marks) quanta: it fills marks with the quanta stepped and returns
// their count and the status after the last. The count must be 1 to the
// number requested and the length must match it, so nothing sized from
// the wire is allocated or written past marks. The status must describe
// the machine the last mark does, and a run shorter than requested must
// have stopped for a reason: packets left in the TX queue, or the program
// done. marks is written only once every check has passed.
func decodeRunMarks(marks []QuantumMark, b []byte) (int, rtlStatus, error) {
	if len(b) < 8 {
		return 0, rtlStatus{}, fmt.Errorf("soc: RTLRunMarks payload is %d bytes, too short for its count", len(b))
	}
	n := binary.LittleEndian.Uint64(b)
	if n == 0 || n > uint64(len(marks)) {
		return 0, rtlStatus{}, fmt.Errorf("soc: RTLRunMarks counts %d quanta, want 1 to the %d requested", n, len(marks))
	}
	if want := 8 + int(n)*markSize + statusSize; len(b) != want {
		return 0, rtlStatus{}, fmt.Errorf("soc: RTLRunMarks payload is %d bytes, want %d for %d quanta", len(b), want, n)
	}
	st, err := decodeStatus(b[len(b)-statusSize:])
	if err != nil {
		return 0, rtlStatus{}, err
	}
	last := b[8+(n-1)*markSize:]
	if c := binary.LittleEndian.Uint64(last); st.cycle != c {
		return 0, rtlStatus{}, fmt.Errorf("soc: RTLRunMarks status is at cycle %d, its last mark at %d", st.cycle, c)
	}
	if fp := binary.LittleEndian.Uint64(last[8:]); st.stats.Fingerprint != fp {
		return 0, rtlStatus{}, fmt.Errorf("soc: RTLRunMarks status fingerprint %#x differs from its last mark's %#x", st.stats.Fingerprint, fp)
	}
	if pj := binary.LittleEndian.Uint64(last[16:]); st.energy.TotalPJ() != pj {
		return 0, rtlStatus{}, fmt.Errorf("soc: RTLRunMarks status energy %d pJ differs from its last mark's %d", st.energy.TotalPJ(), pj)
	}
	if n < uint64(len(marks)) && st.txLen == 0 && !st.done {
		return 0, rtlStatus{}, fmt.Errorf("soc: RTLRunMarks stopped after %d of %d quanta with the TX queue empty and the program running", n, len(marks))
	}
	for i := range marks[:n] {
		m := b[8+i*markSize:]
		marks[i] = QuantumMark{
			Cycle:       binary.LittleEndian.Uint64(m),
			Fingerprint: binary.LittleEndian.Uint64(m[8:]),
			EnergyPJ:    binary.LittleEndian.Uint64(m[16:]),
		}
	}
	return int(n), st, nil
}

// decodeSnap decodes an RTLSnapData or RTLRestore payload: a gob-encoded
// SnapState.
func decodeSnap(b []byte) (*SnapState, error) {
	var st SnapState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return nil, fmt.Errorf("soc: machine image: %w", err)
	}
	return &st, nil
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

	push   []byte               // RTLPush payload scratch
	runReq [runRequestSize]byte // RTLStepRun payload scratch
	arena  []byte               // copy of the last RTLBatch payload
	pulled []packet.Packet      // reused Pull result, aliasing arena
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

// StepRun implements core.RunRTL: one RTLStepRun round trip grants up to
// len(marks) quanta of cycles each (Machine.StepRun on the server), fills
// marks with the quanta stepped and returns their count. The reply's
// status is the machine's after the last quantum, so Cycle, Done, Stats,
// EnergyBreakdown and the TX count are current without a further round
// trip. A server that predates the request answers it with an RPCError.
func (r *RemoteRTL) StepRun(cycles uint64, marks []QuantumMark) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	binary.LittleEndian.PutUint64(r.runReq[:], cycles)
	binary.LittleEndian.PutUint64(r.runReq[8:], uint64(len(marks)))
	resp, err := r.call(packet.Packet{Type: packet.RTLStepRun, Payload: r.runReq[:]}, packet.RTLRunMarks)
	if err != nil {
		return 0, err
	}
	n, st, err := decodeRunMarks(marks, resp.Payload)
	if err != nil {
		return 0, err
	}
	r.st = st
	return n, nil
}

// Push implements core.RTL. The batch is buffered, not flushed, and its ack
// is deferred: it leaves in one segment with the next request (Step, in
// the synchronizer's quantum), whose call collects the ack and reports a
// failed push once. An empty batch sends nothing, since Machine.Push of no
// packets changes nothing; it still reports a recorded deferred failure.
func (r *RemoteRTL) Push(pkts []packet.Packet) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.takeDeferred(); err != nil {
		return err
	}
	if len(pkts) == 0 {
		return nil
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
// When the last status counted no packet in the TX queue, Pull returns an
// empty batch without the wire: only a Step fills the queue, and every
// Step reply brings a fresh count, while draining an empty queue changes
// no machine state. A count gone stale the other way (a SyncReset push
// emptied the queue) costs one wire Pull, never a lost packet.
func (r *RemoteRTL) Pull() ([]packet.Packet, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.st.txLen == 0 {
		return r.pulled[:0], nil
	}
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
	return decodeSnap(resp.Payload)
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
