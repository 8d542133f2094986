// Package bridge models the RoSÉ BRIDGE (paper §3.2, §3.4, Figure 5): the
// FireSim-style bridge that synchronously models I/O between the companion
// computer under simulation and the flight controller in the environment
// simulator.
//
// The bridge has two halves:
//
//   - Hardware queues that stage data packets crossing the modeled I/O
//     interface, exposed to the target SoC as memory-mapped registers on the
//     system bus. Only data packets are visible to the SoC.
//   - A control unit that throttles execution of the RTL simulation: it
//     consumes synchronization packets (cycle budgets) from the synchronizer
//     and releases cycles to the SoC engine one quantum at a time.
package bridge

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/packet"
)

// DefaultQueueBytes is the default capacity of each hardware queue. Images
// must fit or the sender stalls against back-pressure.
const DefaultQueueBytes = 64 << 10

// Queue is a bounded FIFO of packets with a byte-capacity limit, modeling a
// hardware buffer in the bridge RTL. Consumed slots are tracked with a head
// index rather than re-slicing so the backing array is reused once the queue
// drains — the steady-state co-simulation loop pushes and pops without
// allocating.
type Queue struct {
	capBytes int
	used     int
	head     int
	pkts     []packet.Packet
}

// NewQueue creates a queue holding at most capBytes of payload+header data.
func NewQueue(capBytes int) *Queue {
	return &Queue{capBytes: capBytes}
}

// Push appends p; it reports false (and leaves the queue unchanged) when the
// packet does not fit — hardware back-pressure.
func (q *Queue) Push(p packet.Packet) bool {
	if q.used+p.Size() > q.capBytes {
		return false
	}
	if q.head == len(q.pkts) {
		// Empty: rewind so append reuses the backing array.
		q.pkts = q.pkts[:0]
		q.head = 0
	} else if q.head > 0 && len(q.pkts) == cap(q.pkts) {
		// About to grow while carrying a consumed prefix: compact first so
		// a never-empty queue stays bounded by its live contents.
		n := copy(q.pkts, q.pkts[q.head:])
		for i := n; i < len(q.pkts); i++ {
			q.pkts[i] = packet.Packet{}
		}
		q.pkts = q.pkts[:n]
		q.head = 0
	}
	q.pkts = append(q.pkts, p)
	q.used += p.Size()
	return true
}

// Pop removes and returns the oldest packet.
func (q *Queue) Pop() (packet.Packet, bool) {
	if q.head == len(q.pkts) {
		return packet.Packet{}, false
	}
	p := q.pkts[q.head]
	q.pkts[q.head] = packet.Packet{} // drop the payload reference
	q.head++
	q.used -= p.Size()
	return p, true
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return len(q.pkts) - q.head }

// UsedBytes returns the occupied capacity.
func (q *Queue) UsedBytes() int { return q.used }

// FreeBytes returns the remaining capacity.
func (q *Queue) FreeBytes() int { return q.capBytes - q.used }

// Stats counts bridge traffic for telemetry and the throughput experiments.
type Stats struct {
	HostToSoCPackets int
	HostToSoCBytes   int
	SoCToHostPackets int
	SoCToHostBytes   int
	SyncGrants       int
	RxDrops          int // host→SoC packets rejected by a full queue
}

// Bridge is the target-side RoSÉ BRIDGE instance.
type Bridge struct {
	rx *Queue // host → SoC data packets
	tx *Queue // SoC → host data packets

	cyclesPerSync uint64 // firesim_steps, set by SYNC_CONFIG
	budget        uint64 // cycles granted and not yet consumed

	stats Stats
	// o exports live queue occupancy, high-water marks, and drop counts
	// (nil = disabled; hooks reduce to a nil check).
	o *obs.BridgeObs
	// log records queue-full drops (nil = silent). The first drop is a
	// warning; repeats demote to debug so a saturated link cannot flood
	// the event ring.
	log        *obs.Logger
	warnedDrop bool
	// drain is the scratch slice handed out by DrainToHost, reused across
	// synchronization boundaries.
	drain []packet.Packet
}

// SetObs installs queue-occupancy instrumentation. Call before the
// co-simulation starts; a nil argument disables it.
func (b *Bridge) SetObs(o *obs.BridgeObs) { b.o = o }

// SetLog installs the structured logger for drop events. Call before the
// co-simulation starts; a nil argument silences the bridge.
func (b *Bridge) SetLog(l *obs.Logger) { b.log = l }

// observeRx publishes RX occupancy after a push or pop.
func (b *Bridge) observeRx() {
	if b.o == nil {
		return
	}
	used := int64(b.rx.UsedBytes())
	b.o.RxBytes.Set(used)
	b.o.RxBytesHWM.SetMax(used)
}

// observeTx publishes TX occupancy after a push or pop.
func (b *Bridge) observeTx() {
	if b.o == nil {
		return
	}
	used := int64(b.tx.UsedBytes())
	b.o.TxBytes.Set(used)
	b.o.TxBytesHWM.SetMax(used)
}

// New creates a bridge with the given queue capacities (bytes); zero values
// select DefaultQueueBytes.
func New(rxBytes, txBytes int) *Bridge {
	if rxBytes <= 0 {
		rxBytes = DefaultQueueBytes
	}
	if txBytes <= 0 {
		txBytes = DefaultQueueBytes
	}
	return &Bridge{rx: NewQueue(rxBytes), tx: NewQueue(txBytes)}
}

// HandleHostPacket processes one packet arriving from the synchronizer.
// Synchronization packets terminate in the control unit; data packets are
// staged in the RX hardware queue for the SoC.
func (b *Bridge) HandleHostPacket(p packet.Packet) error {
	if p.Type.IsSync() {
		switch p.Type {
		case packet.SyncConfig:
			v, err := p.AsU64()
			if err != nil {
				return err
			}
			b.cyclesPerSync = v
		case packet.SyncGrant:
			v, err := p.AsU64()
			if err != nil {
				return err
			}
			b.budget += v
			b.stats.SyncGrants++
		case packet.SyncReset:
			b.budget = 0
			b.rx = NewQueue(b.rx.capBytes)
			b.tx = NewQueue(b.tx.capBytes)
			b.observeRx()
			b.observeTx()
		default:
			return fmt.Errorf("bridge: unexpected sync packet %v from host", p.Type)
		}
		return nil
	}
	if !b.rx.Push(p) {
		b.stats.RxDrops++
		if b.o != nil {
			b.o.RxDrops.Inc()
		}
		if b.log != nil {
			if !b.warnedDrop {
				b.warnedDrop = true
				b.log.Warn("bridge rx queue full, dropping packet",
					obs.Str("type", p.Type.String()),
					obs.Int("used_bytes", int64(b.rx.UsedBytes())),
					obs.Int("pkt_bytes", int64(p.Size())))
			} else {
				b.log.Debug("bridge rx drop",
					obs.Str("type", p.Type.String()),
					obs.Int("drops", int64(b.stats.RxDrops)))
			}
		}
		return fmt.Errorf("bridge: rx queue full (%d bytes used), dropped %v", b.rx.UsedBytes(), p.Type)
	}
	b.stats.HostToSoCPackets++
	b.stats.HostToSoCBytes += p.Size()
	b.observeRx()
	return nil
}

// DrainToHost removes and returns all SoC→host packets, called by the
// synchronizer at each synchronization boundary. The returned slice is a
// bridge-owned scratch valid only until the next DrainToHost call — both
// consumers (the synchronizer's exchange loop and the remote server's batch
// encoder) finish with it before the next boundary.
func (b *Bridge) DrainToHost() []packet.Packet {
	out := b.drain[:0]
	for {
		p, ok := b.tx.Pop()
		if !ok {
			b.observeTx()
			b.drain = out
			return out
		}
		out = append(out, p)
	}
}

// CyclesPerSync returns the configured synchronization quantum.
func (b *Bridge) CyclesPerSync() uint64 { return b.cyclesPerSync }

// Budget returns the cycles currently released to the SoC engine.
func (b *Bridge) Budget() uint64 { return b.budget }

// ConsumeBudget subtracts up to n cycles from the granted budget and returns
// the amount actually consumed.
func (b *Bridge) ConsumeBudget(n uint64) uint64 {
	if n > b.budget {
		n = b.budget
	}
	b.budget -= n
	return n
}

// --- SoC-facing side: what the memory-mapped queue registers expose ---

// RecvData pops the next data packet from the RX queue (a read of the
// bridge's RX registers). ok is false when no data is pending — the SoC
// stalls until the next synchronization delivers packets.
func (b *Bridge) RecvData() (packet.Packet, bool) {
	p, ok := b.rx.Pop()
	if ok {
		b.observeRx()
	}
	return p, ok
}

// PeekRxLen returns the number of packets visible in the RX queue, as a
// status-register read would.
func (b *Bridge) PeekRxLen() int { return b.rx.Len() }

// PeekTxLen returns the number of packets waiting in the TX queue for the
// next DrainToHost.
func (b *Bridge) PeekTxLen() int { return b.tx.Len() }

// SendData pushes a data packet into the TX queue (a write of the bridge's
// TX registers). It reports false when the queue is full — back-pressure
// stalls the SoC until the synchronizer drains the queue.
func (b *Bridge) SendData(p packet.Packet) bool {
	if p.Type.IsSync() {
		return false // the SoC can never emit sync packets
	}
	if !b.tx.Push(p) {
		return false
	}
	b.stats.SoCToHostPackets++
	b.stats.SoCToHostBytes += p.Size()
	b.observeTx()
	return true
}

// Stats returns a copy of the traffic counters.
func (b *Bridge) Stats() Stats { return b.stats }

// State is the serializable bridge image: queue contents plus the control
// unit's configuration, budget, and traffic counters. Observability hooks and
// the drop logger are wiring, not state, and are reattached after restore.
type State struct {
	CyclesPerSync uint64
	Budget        uint64
	Stats         Stats
	RxCapBytes    int
	TxCapBytes    int
	Rx            []packet.Packet
	Tx            []packet.Packet
}

// State captures the bridge for a snapshot. Queued packets are deep-copied so
// the image stays valid if the live bridge keeps running.
func (b *Bridge) State() State {
	return State{
		CyclesPerSync: b.cyclesPerSync,
		Budget:        b.budget,
		Stats:         b.stats,
		RxCapBytes:    b.rx.capBytes,
		TxCapBytes:    b.tx.capBytes,
		Rx:            copyPackets(b.rx.pkts[b.rx.head:]),
		Tx:            copyPackets(b.tx.pkts[b.tx.head:]),
	}
}

// SetState overwrites the bridge with a captured image. Capacities in the
// image win over the constructor's: a restored machine must see exactly the
// queues it was snapshotted with.
func (b *Bridge) SetState(s State) {
	b.cyclesPerSync = s.CyclesPerSync
	b.budget = s.Budget
	b.stats = s.Stats
	b.rx = NewQueue(s.RxCapBytes)
	for _, p := range copyPackets(s.Rx) {
		b.rx.pkts = append(b.rx.pkts, p)
		b.rx.used += p.Size()
	}
	b.tx = NewQueue(s.TxCapBytes)
	for _, p := range copyPackets(s.Tx) {
		b.tx.pkts = append(b.tx.pkts, p)
		b.tx.used += p.Size()
	}
	b.observeRx()
	b.observeTx()
}

// copyPackets clones a packet slice including payload bytes.
func copyPackets(pkts []packet.Packet) []packet.Packet {
	if len(pkts) == 0 {
		return nil
	}
	out := make([]packet.Packet, len(pkts))
	for i, p := range pkts {
		out[i] = p
		if p.Payload != nil {
			out[i].Payload = append([]byte(nil), p.Payload...)
		}
	}
	return out
}
