package obs

import (
	"sync"
	"sync/atomic"
)

// DefaultStreamBuf is a subscriber's record buffer when none is asked for,
// and MaxStreamBuf the largest one /stream.ndjson grants (it rejects a
// larger ?buf=): at a few hundred bytes a record, a full buffer stays
// about a megabyte.
const (
	DefaultStreamBuf = 256
	MaxStreamBuf     = 4096
)

// StreamLine is one /stream.ndjson line: a quantum record, or a heartbeat
// when no quantum completed within the heartbeat interval, stamped with
// the subscriber's cumulative drop count. Heartbeat and Dropped belong to
// the delivery, not to the record; a heartbeat line has no record.
type StreamLine struct {
	*QuantumRecord
	Heartbeat bool   `json:"heartbeat,omitempty"`
	Dropped   uint64 `json:"dropped,omitempty"`
}

// StreamSub is one subscription on a StreamBus: a bounded record channel
// plus a drop counter. A slow reader loses records (counted), never stalls
// the publisher.
type StreamSub struct {
	ch      chan QuantumRecord
	dropped atomic.Uint64
}

// C returns the subscriber's record channel.
func (s *StreamSub) C() <-chan QuantumRecord { return s.ch }

// Dropped returns how many records this subscriber has missed so far.
func (s *StreamSub) Dropped() uint64 { return s.dropped.Load() }

// StreamBus is a bounded, drop-counting pub/sub for quantum records.
// Publish is wait-free toward subscribers: each send is a non-blocking
// channel write, and a full subscriber buffer counts a drop instead of
// blocking. With zero subscribers Publish is one atomic load — cheap
// enough to sit on the quantum hot path unconditionally. A nil *StreamBus
// discards everything.
type StreamBus struct {
	mu    sync.Mutex   // guards subscribe/unsubscribe (copy-on-write)
	subs  atomic.Value // []*StreamSub, replaced wholesale under mu
	nsubs atomic.Int32

	// Frames/DroppedTotal count published frames and bus-wide drops
	// (registered by Suite under rose_stream_*).
	Frames       *Counter
	DroppedTotal *Counter
}

// NewStreamBus builds a bus; reg (may be nil) receives the bus counters.
func NewStreamBus(reg *Registry) *StreamBus {
	b := &StreamBus{
		Frames: reg.Counter("rose_stream_frames_total",
			"Telemetry frames published on the live stream bus."),
		DroppedTotal: reg.Counter("rose_stream_dropped_frames_total",
			"Telemetry frames dropped across all stream subscribers (slow readers)."),
	}
	b.subs.Store([]*StreamSub(nil))
	return b
}

// Subscribe attaches a new subscriber with the given record buffer
// capacity (<= 0 selects DefaultStreamBuf). Nil-safe (returns nil; a nil subscriber has a nil channel, which blocks
// forever — callers guard on the bus instead).
func (b *StreamBus) Subscribe(buf int) *StreamSub {
	if b == nil {
		return nil
	}
	if buf <= 0 {
		buf = DefaultStreamBuf
	}
	sub := &StreamSub{ch: make(chan QuantumRecord, buf)}
	b.mu.Lock()
	cur := b.subs.Load().([]*StreamSub)
	next := make([]*StreamSub, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = sub
	b.subs.Store(next)
	b.nsubs.Store(int32(len(next)))
	b.mu.Unlock()
	return sub
}

// Unsubscribe detaches a subscriber. The channel is deliberately left open:
// a Publish racing with Unsubscribe may still hold the previous subscriber
// slice and send one last record, which must not panic. Readers stop by
// abandoning the channel, not by waiting for a close.
func (b *StreamBus) Unsubscribe(sub *StreamSub) {
	if b == nil || sub == nil {
		return
	}
	b.mu.Lock()
	cur := b.subs.Load().([]*StreamSub)
	next := make([]*StreamSub, 0, len(cur))
	for _, s := range cur {
		if s != sub {
			next = append(next, s)
		}
	}
	b.subs.Store(next)
	b.nsubs.Store(int32(len(next)))
	b.mu.Unlock()
}

// Publish fans one record out to every subscriber, non-blocking: a copy
// per subscriber channel, no allocation. Returns immediately with zero
// subscribers.
func (b *StreamBus) Publish(q QuantumRecord) {
	if b == nil || b.nsubs.Load() == 0 {
		return
	}
	b.Frames.Inc()
	for _, sub := range b.subs.Load().([]*StreamSub) {
		select {
		case sub.ch <- q:
		default:
			sub.dropped.Add(1)
			b.DroppedTotal.Inc()
		}
	}
}
