package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// Link is the client side of one RPC connection with optional resilience:
// per-RPC I/O deadlines, transparent reconnect with capped exponential
// backoff, and idempotent replay of unanswered requests through a
// ReplayWindow. env.Client and soc.RemoteRTL both run on top of it. A Link
// is not safe for concurrent use; transports serialize access with their
// own locks (Close is the one exception — it may race a blocked call to
// unstick it).

// DefaultDialTimeout bounds connection establishment when LinkOptions
// leaves DialTimeout zero. rose-sweep's -dial-timeout flag overrides it
// process-wide.
var DefaultDialTimeout = 10 * time.Second

// DefaultRPCTimeout is the per-RPC I/O deadline applied when LinkOptions
// leaves RPCTimeout zero. The zero default means "no deadline" — the
// fault-free hot path never touches SetDeadline — unless a process (e.g.
// rose-sweep via -rpc-timeout) raises it.
var DefaultRPCTimeout time.Duration

// LinkOptions configures a resilient client link. The zero value is a
// plain connection: bounded dial, no deadlines, no reconnect — exactly the
// pre-resilience transport behavior.
type LinkOptions struct {
	// DialTimeout bounds connection establishment (0 = DefaultDialTimeout).
	DialTimeout time.Duration
	// RPCTimeout is the I/O deadline armed before every blocking flush or
	// read (0 = DefaultRPCTimeout; negative = explicitly none). A deadline
	// turns a mid-frame hang or silently dropped response into an error the
	// reconnect path can act on.
	RPCTimeout time.Duration
	// MaxRetries enables resilience when positive: a failed RPC tears the
	// connection down and tries up to MaxRetries+1 reconnects, replaying
	// the unanswered request window after each. Zero disables reconnect
	// (and the replay window) entirely. Pair a positive MaxRetries with a
	// nonzero RPCTimeout: reconnect only triggers on errors, and without a
	// deadline a blackholed link produces none — the one failure class
	// retries alone cannot recover.
	MaxRetries int
	// BackoffBase and BackoffCap shape the capped exponential reconnect
	// backoff: attempt k sleeps min(BackoffBase<<k, BackoffCap).
	// Defaults: 50ms base, 2s cap.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// CRCPayload extends frame checksums over payload bytes (FlagCRC), so
	// in-flight payload corruption is detected instead of silently
	// corrupting the mission. Metadata-only CRC is always on for resilient
	// links.
	CRCPayload bool
	// Sleep and Now are clock hooks for tests (nil = real time).
	Sleep func(time.Duration)
	Now   func() time.Time
	// Dialer replaces net.DialTimeout for tests (nil = TCP).
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
}

// Backoff returns the reconnect delay before attempt k (0-based),
// min(base<<k, cap) with the option defaults applied.
func (o LinkOptions) Backoff(attempt int) time.Duration {
	base, ceil := o.BackoffBase, o.BackoffCap
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = 2 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	return d
}

func (o LinkOptions) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	return DefaultDialTimeout
}

func (o LinkOptions) rpcTimeout() time.Duration {
	if o.RPCTimeout != 0 {
		if o.RPCTimeout < 0 {
			return 0
		}
		return o.RPCTimeout
	}
	return DefaultRPCTimeout
}

func (o LinkOptions) dial(addr string) (net.Conn, error) {
	if o.Dialer != nil {
		return o.Dialer(addr, o.dialTimeout())
	}
	return net.DialTimeout("tcp", addr, o.dialTimeout())
}

func (o LinkOptions) sleep(d time.Duration) {
	if o.Sleep != nil {
		o.Sleep(d)
		return
	}
	time.Sleep(d)
}

func (o LinkOptions) now() time.Time {
	if o.Now != nil {
		return o.Now()
	}
	return time.Now()
}

// Link wires a connection, framing, and (when MaxRetries > 0) a replay
// window into one recoverable transport endpoint.
type Link struct {
	opts LinkOptions
	addr string
	conn net.Conn
	r    *Reader
	w    *Writer
	win  *ReplayWindow // nil = resilience off

	traceRun    uint64
	traceSeq    uint32
	traceParent uint32

	u64scratch [8]byte
	// streak counts consecutive successful recoveries without a single
	// successfully read response in between. It bounds the pathological
	// cycle where every reconnect succeeds but the link dies again before
	// any progress: once it exceeds MaxRetries the link declares itself
	// dead, turning a permanently flaky peer into a bounded-stall abort.
	streak int
	closed atomic.Bool

	// OnRecover, when set, observes every successful reconnect: how many
	// dial attempts it took and how many window frames were replayed.
	OnRecover func(attempts, replayed int)
	// OnChecksum, when set, observes every checksum-failed inbound frame.
	OnChecksum func()
}

// DialLink connects to addr with o's dial bound and returns the link.
func DialLink(addr string, o LinkOptions) (*Link, error) {
	conn, err := o.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("packet: dialing %s: %w", addr, err)
	}
	l := &Link{opts: o, addr: addr, conn: conn, r: NewReader(conn), w: NewWriter(conn)}
	if o.MaxRetries > 0 {
		l.win = NewReplayWindow(o.CRCPayload)
	}
	return l, nil
}

// Resilient reports whether the link reconnects and replays on failure.
func (l *Link) Resilient() bool { return l.win != nil }

// linkCloseTimeout bounds the write of a resilient link's LinkClose frame.
const linkCloseTimeout = 100 * time.Millisecond

// Close terminates the connection and disables reconnection. A resilient
// link first sends LinkClose, so the server can drop the link's session
// instead of keeping its replay cache for the server's lifetime. The frame
// is best effort: written straight to the connection under a short
// deadline, so a dead or stalled peer cannot hold Close up, and a Close
// that interrupts a call on another goroutine may garble it, leaving the
// session in place.
func (l *Link) Close() error {
	if !l.closed.Swap(true) && l.win != nil {
		if frame, err := AppendFrame(nil, Packet{Type: LinkClose}, 0, 0, 0, l.win.LinkID(), 0, false); err == nil {
			l.conn.SetWriteDeadline(l.opts.now().Add(linkCloseTimeout))
			l.conn.Write(frame)
		}
	}
	return l.conn.Close()
}

// SetTrace sets the trace context stamped on subsequent requests (zero run
// ID clears it).
func (l *Link) SetTrace(runID uint64, seq, parent uint32) {
	l.traceRun, l.traceSeq, l.traceParent = runID, seq, parent
	if l.win == nil {
		l.w.SetTrace(runID, seq, parent)
	}
}

// Send buffers one request without flushing. On a resilient link the frame
// is recorded in the replay window first, so a failure at any later point
// can retransmit it.
func (l *Link) Send(p Packet) error {
	if l.win == nil {
		return l.w.WritePacket(p)
	}
	frame, err := l.win.AppendRequest(p, l.traceRun, l.traceSeq, l.traceParent)
	if err != nil {
		return err
	}
	if err := l.w.WriteRaw(frame); err != nil {
		return l.recover(err)
	}
	return nil
}

// SendU64 buffers a single-uint64 request without a payload allocation.
func (l *Link) SendU64(t Type, v uint64) error {
	if l.win == nil {
		return l.w.WriteU64(t, v)
	}
	binary.LittleEndian.PutUint64(l.u64scratch[:], v)
	return l.Send(Packet{Type: t, Payload: l.u64scratch[:]})
}

// Flush sends everything buffered, recovering the connection on failure.
func (l *Link) Flush() error {
	l.arm()
	if err := l.w.Flush(); err != nil {
		return l.recover(err)
	}
	return nil
}

// Next reads one response. Each successful read retires the oldest window
// entry (responses are strictly FIFO); any failure — timeout, reset,
// checksum mismatch, EOF — triggers reconnect-and-replay, after which the
// read resumes: the server re-serves cached responses for every replayed
// request, so the caller observes an uninterrupted response stream.
func (l *Link) Next() (Packet, error) {
	for {
		l.arm()
		p, err := l.r.Next()
		if err == nil {
			l.win.Ack()
			l.streak = 0
			return p, nil
		}
		if rerr := l.recover(err); rerr != nil {
			return Packet{}, rerr
		}
	}
}

// Buffered exposes the reader's buffered byte count.
func (l *Link) Buffered() int { return l.r.Buffered() }

// arm sets the per-RPC I/O deadline when one is configured.
func (l *Link) arm() {
	if t := l.opts.rpcTimeout(); t > 0 {
		l.conn.SetDeadline(l.opts.now().Add(t))
	}
}

// recover handles a transport failure: on a resilient link it closes the
// broken connection and attempts up to MaxRetries+1 reconnects with capped
// exponential backoff, replaying the full unanswered-request window after
// each successful dial. It returns nil once the link is restored, or the
// original cause (wrapped) when the link must be declared dead.
func (l *Link) recover(cause error) error {
	if l.win == nil || l.closed.Load() {
		return cause
	}
	if errors.Is(cause, ErrChecksum) && l.OnChecksum != nil {
		l.OnChecksum()
	}
	l.streak++
	if l.streak > l.opts.MaxRetries {
		return fmt.Errorf("packet: link to %s dead after %d consecutive recoveries: %w", l.addr, l.streak-1, cause)
	}
	l.conn.Close()
	for attempt := 0; attempt <= l.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			l.opts.sleep(l.opts.Backoff(attempt - 1))
		}
		if l.closed.Load() {
			return cause
		}
		conn, err := l.opts.dial(l.addr)
		if err != nil {
			continue
		}
		// Arm the deadline before replaying: a window larger than the
		// writer's buffer writes to the fresh conn during Replay, and those
		// writes must not hang forever on a blackholed peer.
		if t := l.opts.rpcTimeout(); t > 0 {
			conn.SetDeadline(l.opts.now().Add(t))
		}
		w := NewWriter(conn)
		replayed, err := l.win.Replay(w)
		if err != nil {
			conn.Close()
			continue
		}
		if err := w.Flush(); err != nil {
			conn.Close()
			continue
		}
		l.conn, l.r, l.w = conn, NewReader(conn), w
		if l.OnRecover != nil {
			l.OnRecover(attempt+1, replayed)
		}
		return nil
	}
	return fmt.Errorf("packet: link to %s unrecoverable after %d reconnect attempts: %w", l.addr, l.opts.MaxRetries+1, cause)
}
