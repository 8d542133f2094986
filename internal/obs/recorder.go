package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is the co-simulation flight recorder: a bounded black box that
// continuously keeps the last N quantum records and, on a trigger, dumps
// one self-describing blackbox.json bundle — the quantum tail plus the
// event log tail, the span tail, and a full metrics snapshot. Triggers:
//
//   - panic: a deferred Suite.RecoverPanic hook in the CLI tools
//   - watchdog: a quantum exceeding a configurable deadline (a hung RPC
//     peer — the heartbeat the synchronizer writes at each quantum start
//     stops advancing)
//   - fault: divergence detected by the synchronizer (non-finite state,
//     a dead peer surfacing as a step error)
//   - manual: the /blackbox.json introspection endpoint
//
// Recording is mutex-guarded but touches only preallocated ring storage;
// a nil *Recorder discards everything, so disabled runs pay one branch.
type Recorder struct {
	log    *Logger
	tracer *Tracer
	reg    *Registry
	run    *TraceContext

	mu   sync.Mutex
	ring []QuantumRecord
	n    uint64
	path string

	clock    atomic.Value // func() time.Time, for deterministic tests
	lastBeat atomic.Int64 // unix ns of the last quantum-start heartbeat
	lastSeq  atomic.Uint64
	stalled  atomic.Bool // watchdog latch: one dump per stall

	wstop chan struct{}
	wdone chan struct{}

	// Stalls is the watchdog's quantum-deadline counter
	// (rose_core_quantum_stall_total); the *Dumps counters track how often
	// each trigger fired.
	Stalls        *Counter
	PanicDumps    *Counter
	WatchdogDumps *Counter
	FaultDumps    *Counter
	ManualDumps   *Counter
}

// DefaultBlackboxQuanta is the default quantum-record ring capacity.
const DefaultBlackboxQuanta = 256

// blackboxSpans/blackboxEvents bound the span and event tails embedded in
// a dump.
const (
	blackboxSpans  = 512
	blackboxEvents = 256
)

// DefaultBlackboxPath is where dumps land unless SetPath overrides it.
const DefaultBlackboxPath = "blackbox.json"

// TelemetrySample is the environment-state slice of a quantum record
// (a dependency-free mirror of env.Telemetry — obs sits below env).
type TelemetrySample struct {
	TimeSec         float64 `json:"time_sec"`
	Frame           int64   `json:"frame"`
	PosX            float64 `json:"pos_x"`
	PosY            float64 `json:"pos_y"`
	PosZ            float64 `json:"pos_z"`
	Yaw             float64 `json:"yaw"`
	CollisionCount  int     `json:"collision_count"`
	Collided        bool    `json:"collided"`
	MissionComplete bool    `json:"mission_complete"`
}

// QuantumRecord is one quantum as every per-quantum surface sees it.
// CoreObs.EndQuantum builds it once and hands the same value to the flight
// recorder's ring (the /blackbox.json quanta) and to the StreamBus (the
// /stream.ndjson lines, rose-top and telemetry.FleetStrip).
type QuantumRecord struct {
	// Mission is the sweep or fleet mission's ID ("" for a single-mission
	// run).
	Mission       string `json:"mission,omitempty"`
	Seq           uint64 `json:"seq"`
	StartUnixNano int64  `json:"start_unix_ns"`

	// Quantum phase wall times (host-side), nanoseconds.
	WallNs     int64 `json:"wall_ns"`
	RTLNs      int64 `json:"rtl_ns"`
	EnvNs      int64 `json:"env_ns"`
	ExchangeNs int64 `json:"exchange_ns"`
	StallNs    int64 `json:"stall_ns"`

	// The RTL's cycle after the quantum, cumulative simulated energy, and
	// this quantum's simulated power (HasPower: the ledger produced a
	// sample).
	Cycles   uint64 `json:"cycles"`
	EnergyPJ uint64 `json:"energy_pj,omitempty"`
	PowerMW  int64  `json:"power_mw,omitempty"`
	HasPower bool   `json:"has_power,omitempty"`

	// Fingerprint is the rolling determinism fingerprint after this
	// quantum.
	Fingerprint Hex64 `json:"fingerprint,omitempty"`

	// This mission's bridge queue occupancy and high-water marks, bytes.
	BridgeRxBytes int64 `json:"bridge_rx_bytes"`
	BridgeTxBytes int64 `json:"bridge_tx_bytes"`
	BridgeRxHWM   int64 `json:"bridge_rx_hwm"`
	BridgeTxHWM   int64 `json:"bridge_tx_hwm"`

	// Inference progress: completed count and mean simulated latency.
	Inferences   uint64  `json:"inferences"`
	InferMeanSec float64 `json:"infer_mean_sec"`

	// Telemetry is the boundary sample (authoritative environment state).
	Telemetry TelemetrySample `json:"telemetry"`
}

// Hex64 is a uint64 that JSON carries as 16 hex digits, the encoding of run
// IDs and fingerprint logs (a string survives consumers that parse numbers
// as float64). The digits are produced when the JSON is written, so a
// record holding one is built and published without allocating.
type Hex64 uint64

// String returns the 16 hex digits.
func (h Hex64) String() string { return string(appendHex16(make([]byte, 0, 16), uint64(h))) }

// MarshalText implements encoding.TextMarshaler.
func (h Hex64) MarshalText() ([]byte, error) {
	return appendHex16(make([]byte, 0, 16), uint64(h)), nil
}

// UnmarshalText implements encoding.TextUnmarshaler: exactly 16 hex digits.
func (h *Hex64) UnmarshalText(b []byte) error {
	v, err := strconv.ParseUint(string(b), 16, 64)
	if err != nil || len(b) != 16 {
		return fmt.Errorf("obs: %q is not 16 hex digits", b)
	}
	*h = Hex64(v)
	return nil
}

// SpanRecord is one span as embedded in a blackbox bundle, on the absolute
// unix timeline.
type SpanRecord struct {
	Name          string `json:"name"`
	TID           int32  `json:"tid"`
	StartUnixNano int64  `json:"start_unix_ns"`
	DurNs         int64  `json:"dur_ns"`
	Seq           uint64 `json:"seq,omitempty"`
	HasSeq        bool   `json:"has_seq,omitempty"`
}

// blackbox is the dump schema ("rose-blackbox/2", DESIGN.md §6.6).
type blackbox struct {
	Schema         string          `json:"schema"`
	Reason         string          `json:"reason"`
	RunID          string          `json:"run_id"`
	DumpedUnixNano int64           `json:"dumped_unix_ns"`
	LastSeq        uint64          `json:"last_seq"`
	Quanta         []QuantumRecord `json:"quanta"`
	Events         []LogRecord     `json:"events"`
	Spans          []SpanRecord    `json:"spans"`
	Metrics        json.RawMessage `json:"metrics"`
	Stack          string          `json:"stack,omitempty"`
}

// newRecorder wires a recorder into a suite's registry/tracer/logger.
func newRecorder(reg *Registry, tr *Tracer, log *Logger, run *TraceContext, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultBlackboxQuanta
	}
	r := &Recorder{
		log:    log,
		tracer: tr,
		reg:    reg,
		run:    run,
		ring:   make([]QuantumRecord, capacity),
		path:   DefaultBlackboxPath,
		Stalls: reg.Counter("rose_core_quantum_stall_total",
			"Quanta that exceeded the watchdog deadline (hung RPC peer)."),
		PanicDumps: reg.Counter("rose_blackbox_panic_dumps_total",
			"Blackbox dumps triggered by a recovered panic."),
		WatchdogDumps: reg.Counter("rose_blackbox_watchdog_dumps_total",
			"Blackbox dumps triggered by the quantum watchdog."),
		FaultDumps: reg.Counter("rose_blackbox_fault_dumps_total",
			"Blackbox dumps triggered by divergence/fault detection."),
		ManualDumps: reg.Counter("rose_blackbox_manual_dumps_total",
			"Blackbox dumps served on demand (/blackbox.json)."),
	}
	r.clock.Store(time.Now)
	return r
}

// SetPath overrides where triggered dumps are written (default
// DefaultBlackboxPath). Empty disables file dumps (counters still fire).
func (r *Recorder) SetPath(path string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.path = path
	r.mu.Unlock()
}

// SetClock injects a time source — deterministic watchdog tests drive a
// fake clock through Heartbeat/CheckStall.
func (r *Recorder) SetClock(now func() time.Time) {
	if r == nil || now == nil {
		return
	}
	r.clock.Store(now)
}

func (r *Recorder) now() time.Time {
	return r.clock.Load().(func() time.Time)()
}

// Heartbeat marks the start of quantum seq — the liveness signal the
// watchdog checks. Called by the synchronizer at every quantum start.
func (r *Recorder) Heartbeat(seq uint64) {
	if r == nil {
		return
	}
	r.lastSeq.Store(seq)
	r.lastBeat.Store(r.now().UnixNano())
	r.stalled.Store(false) // progress clears the stall latch
}

// LastSeq returns the sequence of the most recent heartbeat.
func (r *Recorder) LastSeq() uint64 {
	if r == nil {
		return 0
	}
	return r.lastSeq.Load()
}

// Record appends one quantum record to the black-box ring.
func (r *Recorder) Record(q QuantumRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ring[r.n%uint64(len(r.ring))] = q
	r.n++
	r.mu.Unlock()
}

// CheckStall tests the heartbeat against deadline, and on the first
// violation counts a stall, dumps the black box, and latches until the
// next heartbeat. Exported so tests can drive it with a fake clock;
// StartWatchdog calls it periodically. Returns whether a stall fired.
func (r *Recorder) CheckStall(deadline time.Duration) bool {
	if r == nil || deadline <= 0 {
		return false
	}
	beat := r.lastBeat.Load()
	if beat == 0 {
		return false // no quantum has started yet
	}
	if r.now().UnixNano()-beat <= int64(deadline) {
		return false
	}
	if !r.stalled.CompareAndSwap(false, true) {
		return false // already reported this stall
	}
	r.Stalls.Inc()
	r.WatchdogDumps.Inc()
	r.log.Error("quantum watchdog fired",
		Uint("seq", r.lastSeq.Load()),
		Dur("deadline", deadline),
		Dur("stalled_for", time.Duration(r.now().UnixNano()-beat)))
	r.dumpFile("watchdog", nil)
	return true
}

// StartWatchdog begins periodic CheckStall sweeps with the given quantum
// deadline (≤ 0 disables). Stop with StopWatchdog before discarding the
// recorder.
func (r *Recorder) StartWatchdog(deadline time.Duration) {
	if r == nil || deadline <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wstop != nil {
		return // already running
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	r.wstop, r.wdone = stop, done
	interval := deadline / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				r.CheckStall(deadline)
			}
		}
	}()
}

// StopWatchdog halts the watchdog goroutine (no-op when not running).
func (r *Recorder) StopWatchdog() {
	if r == nil {
		return
	}
	r.mu.Lock()
	stop, done := r.wstop, r.wdone
	r.wstop, r.wdone = nil, nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// TriggerFault dumps the black box for a detected divergence/fault.
func (r *Recorder) TriggerFault(reason string) {
	if r == nil {
		return
	}
	r.FaultDumps.Inc()
	r.dumpFile("fault: "+reason, nil)
}

// TriggerPanic dumps the black box for a recovered panic, embedding the
// panic value and the recovery-point stack.
func (r *Recorder) TriggerPanic(p any) {
	if r == nil {
		return
	}
	r.PanicDumps.Inc()
	r.log.Error("panic", Str("value", fmt.Sprint(p)))
	r.dumpFile(fmt.Sprintf("panic: %v", p), debug.Stack())
}

// dumpFile writes a bundle to the configured path.
func (r *Recorder) dumpFile(reason string, stack []byte) {
	r.mu.Lock()
	path := r.path
	r.mu.Unlock()
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		r.log.Error("blackbox dump failed", Str("path", path), Err(err))
		return
	}
	err = r.writeDump(f, reason, stack)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		r.log.Error("blackbox dump failed", Str("path", path), Err(err))
		return
	}
	r.log.Info("blackbox dumped", Str("path", path), Str("reason", reason))
}

// DumpTo writes a bundle to w with the given reason — the on-demand path
// behind /blackbox.json.
func (r *Recorder) DumpTo(w io.Writer, reason string) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	return r.writeDump(w, reason, nil)
}

func (r *Recorder) writeDump(w io.Writer, reason string, stack []byte) error {
	bb := blackbox{
		Schema:         "rose-blackbox/2",
		Reason:         reason,
		RunID:          r.run.RunIDHex(),
		DumpedUnixNano: r.now().UnixNano(),
		LastSeq:        r.lastSeq.Load(),
		Quanta:         r.quanta(),
		Events:         r.log.Snapshot(blackboxEvents),
		Stack:          string(stack),
	}
	epoch := r.tracer.EpochUnixNano()
	for _, e := range r.tracer.Snapshot(blackboxSpans) {
		bb.Spans = append(bb.Spans, SpanRecord{
			Name:          e.Name,
			TID:           e.TID,
			StartUnixNano: epoch + e.Start,
			DurNs:         e.Dur,
			Seq:           e.Seq,
			HasSeq:        e.HasSeq,
		})
	}
	if r.reg != nil {
		var buf jsonBuffer
		if err := r.reg.WriteJSON(&buf); err == nil {
			bb.Metrics = json.RawMessage(buf)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bb)
}

// quanta snapshots the ring, oldest first.
func (r *Recorder) quanta() []QuantumRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	capacity := uint64(len(r.ring))
	count := r.n
	if count > capacity {
		count = capacity
	}
	out := make([]QuantumRecord, 0, count)
	for i := r.n - count; i < r.n; i++ {
		out = append(out, r.ring[i%capacity])
	}
	return out
}

// jsonBuffer is a minimal append-only io.Writer for embedding one encoder's
// output as a RawMessage.
type jsonBuffer []byte

func (b *jsonBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}
