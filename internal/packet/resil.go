package packet

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// Resilient-link support (DESIGN.md §7): exactly-once RPC over a lossy
// transport. Every request on a resilient link carries a (link ID,
// sequence) pair plus a CRC-32C in the resilience extension (FlagResil).
// The client keeps the encoded bytes of every unanswered request in a
// ReplayWindow; after a reconnect it retransmits them verbatim. The server
// keeps a per-link ResilSession recording which sequences have executed
// (including ones still in flight on a dying connection) and a ring of
// recent responses, so a replayed request is answered from the cache — or
// waits for the original execution to finish and then is — instead of
// being re-executed. That is mandatory for determinism: sensor reads draw
// from the environment's noise RNG and re-execution would advance it
// twice.

// castagnoli is the CRC-32C polynomial table (hardware-accelerated on
// amd64/arm64), shared by frame sealing and validation.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum is returned (wrapped) by Reader.Next when a frame's CRC-32C
// does not match its contents. The connection is unusable afterwards —
// framing alignment can no longer be trusted — so transports tear it down
// and reconnect.
var ErrChecksum = errors.New("packet: checksum mismatch")

// ResilWindow is the maximum number of unanswered requests a resilient
// link may have in flight, and equally the depth of the server's response
// replay cache. The synchronizer's pipelining keeps at most a handful of
// requests outstanding (deferred acks plus one sensor batch), so 64 is
// generous headroom, not a tuning knob.
const ResilWindow = 64

// NewLinkID returns a random nonzero link identifier.
func NewLinkID() uint64 {
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			panic("packet: reading random link ID: " + err.Error())
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// AppendFrame appends one complete resilient wire frame — header, optional
// trace extension, resilience extension, payload — to dst and returns the
// result. The frame is byte-identical however often it is retransmitted,
// which is what makes window replay idempotent on the wire.
func AppendFrame(dst []byte, p Packet, traceRun uint64, traceSeq, traceParent uint32, link uint64, seq uint32, crcPayload bool) ([]byte, error) {
	if len(p.Payload) > MaxPayload {
		return dst, fmt.Errorf("packet: payload %d exceeds max %d", len(p.Payload), MaxPayload)
	}
	if link == 0 {
		return dst, errors.New("packet: resilient frame needs a nonzero link ID")
	}
	flags := FlagResil
	if traceRun != 0 {
		flags |= FlagTrace
	}
	if crcPayload {
		flags |= FlagCRC
	}
	start := len(dst)
	var scratch [8]byte
	binary.LittleEndian.PutUint16(scratch[0:2], uint16(p.Type))
	binary.LittleEndian.PutUint16(scratch[2:4], flags)
	binary.LittleEndian.PutUint32(scratch[4:8], uint32(len(p.Payload)))
	dst = append(dst, scratch[:HeaderSize]...)
	if traceRun != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, traceRun)
		dst = binary.LittleEndian.AppendUint32(dst, traceSeq)
		dst = binary.LittleEndian.AppendUint32(dst, traceParent)
	}
	dst = binary.LittleEndian.AppendUint64(dst, link)
	dst = binary.LittleEndian.AppendUint32(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // CRC, patched below
	crc := crc32.Update(0, castagnoli, dst[start:])
	if crcPayload {
		crc = crc32.Update(crc, castagnoli, p.Payload)
	}
	binary.LittleEndian.PutUint32(dst[len(dst)-4:], crc)
	return append(dst, p.Payload...), nil
}

// winEnt is one window entry: the frame's byte range in the arena.
type winEnt struct {
	start, end int
}

// ReplayWindow holds the encoded bytes of every request written but not
// yet answered on a resilient link, in FIFO order. The arena and entry
// slice are grow-only and reset whenever the window drains, so the
// steady-state append/ack cycle allocates nothing.
type ReplayWindow struct {
	link       uint64
	crcPayload bool
	nextSeq    uint32
	arena      []byte
	ents       []winEnt
	head       int
}

// NewReplayWindow creates a window with a fresh random link ID.
func NewReplayWindow(crcPayload bool) *ReplayWindow {
	return &ReplayWindow{link: NewLinkID(), crcPayload: crcPayload}
}

// LinkID returns the window's link identifier.
func (w *ReplayWindow) LinkID() uint64 { return w.link }

// Outstanding returns the number of unanswered requests held.
func (w *ReplayWindow) Outstanding() int {
	if w == nil {
		return 0
	}
	return len(w.ents) - w.head
}

// AppendRequest assigns the next sequence number, encodes p as a complete
// resilient frame, and records it. The returned slice aliases the window
// arena and is valid until the window drains and resets.
func (w *ReplayWindow) AppendRequest(p Packet, traceRun uint64, traceSeq, traceParent uint32) ([]byte, error) {
	if w.Outstanding() >= ResilWindow {
		return nil, fmt.Errorf("packet: replay window full (%d unanswered requests)", ResilWindow)
	}
	if w.head == len(w.ents) {
		w.head, w.ents, w.arena = 0, w.ents[:0], w.arena[:0]
	}
	w.nextSeq++
	start := len(w.arena)
	arena, err := AppendFrame(w.arena, p, traceRun, traceSeq, traceParent, w.link, w.nextSeq, w.crcPayload)
	if err != nil {
		w.nextSeq--
		return nil, err
	}
	w.arena = arena
	w.ents = append(w.ents, winEnt{start, len(arena)})
	return arena[start:], nil
}

// Ack discards the oldest unanswered request — responses arrive in FIFO
// order, so each successful read retires exactly the window head. Nil-safe
// so non-resilient links can call it unconditionally.
func (w *ReplayWindow) Ack() {
	if w != nil && w.head < len(w.ents) {
		w.head++
	}
}

// Replay retransmits every unanswered frame, oldest first, into wr. It
// returns the number of frames written; the caller flushes.
func (w *ReplayWindow) Replay(wr *Writer) (int, error) {
	n := 0
	for i := w.head; i < len(w.ents); i++ {
		e := w.ents[i]
		if err := wr.WriteRaw(w.arena[e.start:e.end]); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// cachedResp is one retained response in a session's replay ring. done
// distinguishes a slot whose request is still executing (reserved by Dedup,
// response pending) from one whose response is stored.
type cachedResp struct {
	seq     uint32
	done    bool
	typ     Type
	payload []byte // reused across occupancies of the slot
}

// ResilSession is the server-side state of one resilient link: the highest
// request sequence stored, a ring of the most recent responses deep enough
// to cover the client's whole replay window, and in-flight reservations
// for sequences currently executing.
type ResilSession struct {
	mu   sync.Mutex
	cond sync.Cond // lazily bound to mu; broadcast by Store
	last uint32
	ring [ResilWindow]cachedResp
	// widest is the longest response payload stored, the size a slot
	// grows to.
	widest int
}

// Dedup resolves seq against the session before execution. Three outcomes:
//
//   - seq already executed: the cached response is copied into scratch
//     (grown as needed) and returned with replayed=true, so the server
//     retransmits bytes identical to the original instead of re-executing.
//   - seq currently executing on another connection (the original
//     connection died while the request was still being served, and the
//     client replayed it after reconnecting): Dedup blocks until the
//     original execution's Store, then serves the cached response. Without
//     this wait, a replay arriving before Store would see an unexecuted
//     sequence and re-execute it — advancing the simulator's RNG or
//     machine state twice and forking the trajectory.
//   - seq is fresh: it is reserved as in-flight and replayed=false is
//     returned. The caller MUST follow a fresh Dedup with Store(seq, resp)
//     on every path, or replayed arrivals for seq will block forever.
//
// A replay that has fallen out of the ring (impossible within one client's
// window) yields an RPCError response.
func (s *ResilSession) Dedup(seq uint32, scratch []byte) (resp Packet, newScratch []byte, replayed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &s.ring[seq%ResilWindow]
	for e.seq == seq && !e.done {
		if s.cond.L == nil {
			s.cond.L = &s.mu
		}
		s.cond.Wait()
	}
	if e.seq == seq {
		scratch = append(scratch[:0], e.payload...)
		return Packet{Type: e.typ, Payload: scratch}, scratch, true
	}
	if seq <= s.last {
		return Packet{Type: RPCError, Payload: []byte("packet: replayed request outside session window")}, scratch, true
	}
	// Fresh: reserve the slot before execution, so a replay of the same seq
	// arriving on a reconnected link waits above instead of re-executing.
	e.seq = seq
	e.done = false
	return Packet{}, scratch, false
}

// Store records the response for seq, releases its in-flight reservation,
// and advances the session high-water mark. The payload is copied into a
// slot-owned buffer. Waiters blocked in Dedup on this seq are woken.
func (s *ResilSession) Store(seq uint32, resp Packet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &s.ring[seq%ResilWindow]
	e.seq = seq
	e.done = true
	e.typ = resp.Type
	// Responses of every size cycle through the slots (a run reply carries
	// one mark per quantum), so a slot that must grow grows to the widest
	// response yet, not just past this one: each then grows about once.
	s.widest = max(s.widest, len(resp.Payload))
	if cap(e.payload) < len(resp.Payload) {
		e.payload = make([]byte, 0, s.widest)
	}
	e.payload = append(e.payload[:0], resp.Payload...)
	if seq > s.last {
		s.last = seq
	}
	// Broadcast is safe with a nil cond.L: only Wait needs the lock bound.
	s.cond.Broadcast()
}

// ResilSessions is a server's registry of per-link sessions. A session
// lives until its client closes the link (LinkClose): a link that breaks
// instead may reconnect and replay at any time. A client that re-dials per
// flight (perfbench's tcp-1ms re-dials the RTL link) would otherwise leave
// a session, up to 64 cached responses, behind every flight.
type ResilSessions struct {
	mu sync.Mutex
	m  map[uint64]*ResilSession
}

// NewResilSessions returns an empty registry.
func NewResilSessions() *ResilSessions {
	return &ResilSessions{m: make(map[uint64]*ResilSession)}
}

// Get returns the session for link, creating it on first sight.
func (s *ResilSessions) Get(link uint64) *ResilSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.m[link]
	if sess == nil {
		sess = &ResilSession{}
		s.m[link] = sess
	}
	return sess
}

// Drop forgets link's session: its client closed the link (LinkClose) and
// will never replay a request.
func (s *ResilSessions) Drop(link uint64) {
	s.mu.Lock()
	delete(s.m, link)
	s.mu.Unlock()
}

// Len returns the number of live sessions.
func (s *ResilSessions) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
