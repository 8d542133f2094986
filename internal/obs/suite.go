package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Suite bundles a Registry, an optional Tracer, the structured event log,
// the run's trace context, the flight recorder, and the per-subsystem
// instrument sets threaded through the co-simulation stack. A nil *Suite
// (observability disabled) yields nil sub-bundles, whose record methods
// are all nil-safe no-ops, so callers wire hooks unconditionally.
type Suite struct {
	Registry *Registry
	Tracer   *Tracer
	Log      *Logger
	Run      *TraceContext
	Recorder *Recorder

	// Bus is the live telemetry stream: the quantum records of every
	// CoreObs wired into this suite (parent and per-mission alike),
	// consumed by /stream.ndjson subscribers and rose-top.
	Bus *StreamBus

	// Host labels this process in exported traces ("rose-sim",
	// "rose-env-server"); WriteTrace falls back to "rose" when empty.
	Host string

	Core      *CoreObs
	RPC       *RPCObs
	EnvServer *EnvServerObs
	Bridge    *BridgeObs
	SoC       *SoCObs
	App       *AppObs

	// Run-metadata labels (forced GEMM kernel, inference precision, ...)
	// exported with the rose_run trace event; see SetMeta.
	metaMu sync.Mutex
	meta   []metaKV

	// missionSeq numbers auto-assigned mission IDs (Mission with id "").
	missionSeq atomic.Uint64

	start time.Time
}

type metaKV struct{ key, value string }

// New creates a fully wired suite. traceEvents sets the tracer ring
// capacity: 0 disables tracing (metrics only), < 0 selects
// DefaultTraceEvents.
func New(traceEvents int) *Suite {
	reg := NewRegistry()
	var tr *Tracer
	if traceEvents != 0 {
		tr = NewTracer(traceEvents)
	}
	log := NewLogger(LevelInfo)
	run := NewTraceContext()
	rec := newRecorder(reg, tr, log, run, DefaultBlackboxQuanta)
	bus := NewStreamBus(reg)
	s := &Suite{
		Registry:  reg,
		Tracer:    tr,
		Log:       log,
		Run:       run,
		Recorder:  rec,
		Bus:       bus,
		Core:      newCoreObs(reg, tr, run, rec, log),
		RPC:       newRPCObs(reg, tr),
		EnvServer: newEnvServerObs(reg, tr, log),
		Bridge:    newBridgeObs(reg),
		SoC:       newSoCObs(reg),
		App:       newAppObs(reg),
		start:     time.Now(),
	}
	s.Core.bindMission("", bus, s.Bridge, s.App)
	return s
}

// MissionObs is the instrument set one mission wires. Suite.Parent hands a
// single-mission run the suite's own unlabeled bundles; Suite.Mission hands
// a fleet/sweep mission the same subsystem bundles built against a labeled
// Scope, so `/metrics` exposes each mission's series labeled with
// mission_id (plus map/hw/precision) alongside the parent-side aggregates.
// Either way the bundles share the suite's tracer, flight recorder, stream
// bus, run context, and log.
type MissionObs struct {
	ID    string // "" for the suite's parent set
	Scope *Scope // nil for the suite's parent set

	// Run is the suite's trace context (stamped onto RPCs, carried across
	// snapshots); Log is the suite's structured event log.
	Run *TraceContext
	Log *Logger

	Core   *CoreObs
	RPC    *RPCObs
	Bridge *BridgeObs
	SoC    *SoCObs
	App    *AppObs
}

// Mission creates a per-mission observability scope. id "" auto-assigns
// m0, m1, ... in creation order; labels (map, hw, precision, ...) ride on
// every metric series the mission records. Nil-safe: a nil suite yields a
// nil MissionObs, and experiments treat that exactly like disabled
// observability.
func (s *Suite) Mission(id string, labels ...[2]string) *MissionObs {
	if s == nil {
		return nil
	}
	if id == "" {
		id = fmt.Sprintf("m%d", s.missionSeq.Add(1)-1)
	}
	kvs := make([][2]string, 0, len(labels)+1)
	kvs = append(kvs, [2]string{"mission_id", id})
	kvs = append(kvs, labels...)
	sc := s.Registry.Scope(kvs...)
	m := &MissionObs{
		ID:     id,
		Scope:  sc,
		Run:    s.Run,
		Log:    s.Log,
		Core:   newCoreObs(sc, s.Tracer, s.Run, s.Recorder, s.Log),
		RPC:    newRPCObs(sc, s.Tracer),
		Bridge: newBridgeObs(sc),
		SoC:    newSoCObs(sc),
		App:    newAppObs(sc),
	}
	m.Core.bindMission(id, s.Bus, m.Bridge, m.App)
	return m
}

// Parent returns the suite's unlabeled instrument set — what a
// single-mission run wires, so its series are the suite's own. Nil-safe: a
// nil suite yields a nil MissionObs (observability off).
func (s *Suite) Parent() *MissionObs {
	if s == nil {
		return nil
	}
	return &MissionObs{
		Run: s.Run, Log: s.Log,
		Core: s.Core, RPC: s.RPC, Bridge: s.Bridge, SoC: s.SoC, App: s.App,
	}
}

// Logger returns the suite's structured logger. Safe on a nil suite: the
// returned nil *Logger discards every call, so CLI code can log without
// first checking whether observability was enabled.
func (s *Suite) Logger() *Logger {
	if s == nil {
		return nil
	}
	return s.Log
}

// SetMeta records a run-metadata label — configuration that shapes the
// run's numbers but is invisible in the metrics themselves, like the forced
// GEMM kernel or the inference precision. Labels ride along in the rose_run
// trace event (WriteTrace) so an exported trace is self-describing. Keys
// keep first-set order; setting an existing key overwrites its value. Safe
// on a nil suite (no-op, like every other disabled-observability path).
func (s *Suite) SetMeta(key, value string) {
	if s == nil || key == "" {
		return
	}
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	for i := range s.meta {
		if s.meta[i].key == key {
			s.meta[i].value = value
			return
		}
	}
	s.meta = append(s.meta, metaKV{key, value})
}

// Meta returns the run-metadata labels in insertion order as key/value
// pairs. Nil-safe (empty).
func (s *Suite) Meta() [][2]string {
	if s == nil {
		return nil
	}
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	out := make([][2]string, len(s.meta))
	for i, kv := range s.meta {
		out[i] = [2]string{kv.key, kv.value}
	}
	return out
}

// RecoverPanic is the CLI tools' crash hook, used as
//
//	defer func() { suite.RecoverPanic(recover()) }()
//
// On a panic it dumps the black box — the deferred call still sees the
// panicking frames, so the embedded stack includes the panic site — and
// re-panics so the process dies with the original value. Safe on a nil
// suite (the panic just propagates).
func (s *Suite) RecoverPanic(p any) {
	if p == nil {
		return
	}
	if s != nil {
		s.Recorder.TriggerPanic(p)
	}
	panic(p)
}

// WriteTrace writes the suite's Chrome trace with run metadata prepended:
// a process_name metadata event naming the host and a rose_run event
// carrying the run ID and the trace epoch (as a decimal string — unix
// nanoseconds do not survive a float64 round-trip) that ParseHostTrace and
// the merge mode consume. Works on a nil suite (empty valid trace).
func (s *Suite) WriteTrace(w io.Writer, host string) error {
	if host == "" {
		host = "rose"
	}
	if _, err := io.WriteString(w, "["); err != nil {
		return err
	}
	if s != nil {
		// A server-side suite reports the run it adopted from the wire (when
		// any) rather than its own locally generated ID, so the two hosts'
		// traces carry the same run_id and the merge mode can pair them.
		runID := s.Run.RunID()
		if adopted := s.EnvServer.SeenRun(); adopted != 0 {
			runID = adopted
		}
		var meta []byte
		for _, kv := range s.Meta() {
			meta = append(meta, fmt.Sprintf(", %s: %s",
				strconv.Quote(kv[0]), strconv.Quote(kv[1]))...)
		}
		if _, err := fmt.Fprintf(w,
			"\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"args\": {\"name\": %s}},\n"+
				"  {\"name\": \"rose_run\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"args\": {\"run_id\": %s, \"epoch_unix_ns\": \"%d\", \"host\": %s%s}}",
			strconv.Quote(host), strconv.Quote(string(appendHex16(nil, runID))),
			s.Tracer.EpochUnixNano(), strconv.Quote(host), meta); err != nil {
			return err
		}
		if err := s.Tracer.forEach(func(e Event) error {
			return writeChromeEvent(w, ",\n", 1, e)
		}); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

// CoreObs instruments the synchronizer: one histogram and one trace track
// per quantum phase. Phase taxonomy (DESIGN.md §6):
//
//	exchange      — boundary packet exchange (pull, serve, push)
//	rtl.quantum   — rtl.Step burning SyncCycles
//	env.quantum   — env.StepFrames + boundary telemetry (worker track)
//	overlap.stall — synchronizer waiting on the env worker after the RTL
//	                quantum returned (overlap imbalance)
//	quantum       — the whole loop iteration
type CoreObs struct {
	tracer *Tracer
	run    *TraceContext
	rec    *Recorder
	log    *Logger

	// Per-quantum scratch for the quantum record, written between
	// BeginQuantum and EndQuantum. All atomic: curEnv is written by the
	// overlapped env worker, and sweep runs share one suite across
	// concurrent missions (their records may interleave, but stay
	// race-free).
	curSeq      atomic.Uint64
	curRTL      atomic.Int64
	curExchange atomic.Int64
	curStall    atomic.Int64
	curEnv      atomic.Int64
	curEnergy   atomic.Uint64 // cumulative simulated energy at quantum end, pJ
	curPowerMW  atomic.Int64  // this quantum's simulated power, mW
	hasPower    atomic.Bool
	curFP       atomic.Uint64 // rolling determinism fingerprint after this quantum

	// Mission wiring (bindMission): this core's mission ID ("" for the
	// parent/single-mission core), the suite bus its records are published
	// on, and the mission's sibling bundles whose values complete each
	// record.
	mission string
	bus     *StreamBus
	brg     *BridgeObs
	app     *AppObs

	Quanta       *Counter
	Quantum      *Histogram
	RTL          *Histogram
	Env          *Histogram
	Exchange     *Histogram
	OverlapStall *Histogram
	Fingerprint  *Gauge
}

func newCoreObs(ins Instruments, tr *Tracer, run *TraceContext, rec *Recorder, log *Logger) *CoreObs {
	return &CoreObs{
		tracer: tr,
		run:    run,
		rec:    rec,
		log:    log,
		Quanta: ins.Counter("rose_cosim_quanta_total",
			"Synchronization quanta executed."),
		Quantum: ins.Histogram("rose_cosim_quantum_seconds",
			"Wall time of one whole synchronization quantum.", nil),
		RTL: ins.Histogram("rose_cosim_rtl_quantum_seconds",
			"Wall time of the RTL (SoC engine) quantum.", nil),
		Env: ins.Histogram("rose_cosim_env_quantum_seconds",
			"Wall time of the environment quantum (frames plus telemetry).", nil),
		Exchange: ins.Histogram("rose_cosim_exchange_seconds",
			"Wall time of boundary packet exchange.", nil),
		OverlapStall: ins.Histogram("rose_cosim_overlap_stall_seconds",
			"Wall time the synchronizer waited on the env worker after the RTL quantum finished.", nil),
		Fingerprint: ins.Gauge("rose_cosim_fingerprint",
			"Rolling determinism fingerprint after the most recent quantum (FNV-1a 64, stored as int64 bits)."),
	}
}

// bindMission wires the core bundle to its mission: the ID its records
// carry, the suite bus they are published on, and the mission's own
// bridge and app bundles, which supply the records' queue and inference
// fields.
func (o *CoreObs) bindMission(mission string, bus *StreamBus, brg *BridgeObs, app *AppObs) {
	o.mission, o.bus, o.brg, o.app = mission, bus, brg, app
}

// Start returns the current time when observing, the zero time when o is
// nil — the single call sites make in the disabled case is a nil check.
func (o *CoreObs) Start() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// BeginQuantum opens a quantum: it advances the run's trace sequence (the
// number stamped onto every RPC this quantum issues), beats the watchdog
// heartbeat, resets the per-quantum phase scratch, and returns the quantum
// start time (zero on nil, like Start).
func (o *CoreObs) BeginQuantum() time.Time {
	if o == nil {
		return time.Time{}
	}
	seq := o.run.Advance()
	o.curSeq.Store(seq)
	o.curRTL.Store(0)
	o.curExchange.Store(0)
	o.curStall.Store(0)
	o.curEnv.Store(0)
	o.curPowerMW.Store(0)
	o.hasPower.Store(false)
	o.rec.Heartbeat(seq)
	return time.Now()
}

// ObserveFingerprint records the quantum's rolling determinism fingerprint:
// latest value on the gauge (int64 bits), scratch for the quantum record.
func (o *CoreObs) ObserveFingerprint(fp uint64) {
	if o == nil {
		return
	}
	o.curFP.Store(fp)
	o.Fingerprint.Set(int64(fp))
}

// FingerprintValue returns the most recent fingerprint (0 on nil / before
// the first quantum).
func (o *CoreObs) FingerprintValue() uint64 {
	if o == nil {
		return 0
	}
	return o.curFP.Load()
}

// Seq returns the current quantum's trace sequence (0 on nil).
func (o *CoreObs) Seq() uint64 {
	if o == nil {
		return 0
	}
	return o.curSeq.Load()
}

func (o *CoreObs) span(name string, tid int32, start, end time.Time, h *Histogram) {
	h.Observe(end.Sub(start))
	o.tracer.SpanQ(name, tid, start, end, o.curSeq.Load())
}

// ObserveRTL records one RTL quantum starting at start and ending now.
func (o *CoreObs) ObserveRTL(start time.Time) {
	if o == nil {
		return
	}
	end := time.Now()
	o.curRTL.Store(end.Sub(start).Nanoseconds())
	o.span("rtl.quantum", TrackSync, start, end, o.RTL)
}

// ObserveEnv records one environment quantum (called from the overlap
// worker, or inline in serial mode).
func (o *CoreObs) ObserveEnv(start time.Time) {
	if o == nil {
		return
	}
	end := time.Now()
	o.curEnv.Store(end.Sub(start).Nanoseconds())
	o.span("env.quantum", TrackEnv, start, end, o.Env)
}

// ObserveExchange records one boundary exchange.
func (o *CoreObs) ObserveExchange(start time.Time) {
	if o == nil {
		return
	}
	end := time.Now()
	o.curExchange.Store(end.Sub(start).Nanoseconds())
	o.span("exchange", TrackSync, start, end, o.Exchange)
}

// ObserveStall records the post-RTL wait for the env worker's quantum.
func (o *CoreObs) ObserveStall(start time.Time) {
	if o == nil {
		return
	}
	end := time.Now()
	o.curStall.Store(end.Sub(start).Nanoseconds())
	o.span("overlap.stall", TrackSync, start, end, o.OverlapStall)
}

// ObservePower records one quantum's simulated-power sample: the SoC's
// cumulative energy (dynamic + static, pJ) and this quantum's average
// simulated power in milliwatts. The sample lands in the quantum's record
// and on the trace's power counter track (a Perfetto power rail).
func (o *CoreObs) ObservePower(totalPJ uint64, powerMW int64) {
	if o == nil {
		return
	}
	o.curEnergy.Store(totalPJ)
	o.curPowerMW.Store(powerMW)
	o.hasPower.Store(true)
	o.tracer.CounterEvent("power_mw", TrackPower, time.Now(), powerMW)
}

// EndQuantum closes a quantum: it counts and times the whole iteration,
// then builds the quantum's record once — phase breakdown, the RTL's
// cycle after the quantum (as the synchronizer read it, so a remote RTL's
// and each quantum of a run's are its own), energy and power, fingerprint,
// this mission's bridge queues and inference progress, and the boundary
// telemetry sample — and hands that one value to the flight recorder and
// the stream bus. Neither allocates.
func (o *CoreObs) EndQuantum(start time.Time, cycle uint64, sample TelemetrySample) {
	if o == nil {
		return
	}
	end := time.Now()
	o.Quanta.Inc()
	o.span("quantum", TrackSync, start, end, o.Quantum)
	q := QuantumRecord{
		Mission:       o.mission,
		Seq:           o.curSeq.Load(),
		StartUnixNano: start.UnixNano(),
		WallNs:        end.Sub(start).Nanoseconds(),
		RTLNs:         o.curRTL.Load(),
		EnvNs:         o.curEnv.Load(),
		ExchangeNs:    o.curExchange.Load(),
		StallNs:       o.curStall.Load(),
		Cycles:        cycle,
		EnergyPJ:      o.curEnergy.Load(),
		PowerMW:       o.curPowerMW.Load(),
		HasPower:      o.hasPower.Load(),
		Fingerprint:   Hex64(o.curFP.Load()),
		BridgeRxBytes: o.brg.RxBytes.Value(),
		BridgeTxBytes: o.brg.TxBytes.Value(),
		BridgeRxHWM:   o.brg.RxBytesHWM.Value(),
		BridgeTxHWM:   o.brg.TxBytesHWM.Value(),
		Inferences:    o.app.Inferences.Value(),
		InferMeanSec:  o.app.Latency.Mean().Seconds(),
		Telemetry:     sample,
	}
	o.rec.Record(q)
	o.bus.Publish(q)
}

// Fault reports a detected divergence or fatal co-simulation error: it
// logs the reason and triggers a flight-recorder dump.
func (o *CoreObs) Fault(reason string) {
	if o == nil {
		return
	}
	o.log.Error("cosim fault", Str("reason", reason), Uint("seq", o.curSeq.Load()))
	o.rec.TriggerFault(reason)
}

// RPCObs instruments the environment RPC client (the synchronizer side of
// the AirSim-RPC link).
type RPCObs struct {
	tracer *Tracer

	RoundTrips     *Counter
	DeferredCmds   *Counter
	BatchedFetches *Counter
	BatchedSensors *Counter
	BytesOut       *Counter
	BytesIn        *Counter
	Reconnects     *Counter
	ReplayedFrames *Counter
	ChecksumErrors *Counter
	RoundTrip      *Histogram
}

// ObserveRoundTrip records one synchronous round-trip ending now: count,
// latency, and an rpc.roundtrip span tagged with the quantum sequence when
// the client carries a trace context (traced) — the client half of the
// cross-host correlation pair.
func (o *RPCObs) ObserveRoundTrip(start time.Time, seq uint64, traced bool) {
	if o == nil {
		return
	}
	end := time.Now()
	o.RoundTrips.Inc()
	o.RoundTrip.Observe(end.Sub(start))
	if traced {
		o.tracer.SpanQ("rpc.roundtrip", TrackRPC, start, end, seq)
	} else {
		o.tracer.Span("rpc.roundtrip", TrackRPC, start, end)
	}
}

func newRPCObs(ins Instruments, tr *Tracer) *RPCObs {
	return &RPCObs{
		tracer: tr,
		RoundTrips: ins.Counter("rose_rpc_roundtrips_total",
			"Synchronous environment RPC round-trips."),
		DeferredCmds: ins.Counter("rose_rpc_deferred_cmds_total",
			"Fire-and-forget commands whose acks were deferred (StepFrames, CmdVel)."),
		BatchedFetches: ins.Counter("rose_rpc_batched_fetches_total",
			"Batched sensor fetches (one network round-trip each)."),
		BatchedSensors: ins.Counter("rose_rpc_batched_sensors_total",
			"Individual sensor requests served by batched fetches."),
		BytesOut: ins.Counter("rose_rpc_bytes_out_total",
			"Bytes of framed request traffic written by the RPC client."),
		BytesIn: ins.Counter("rose_rpc_bytes_in_total",
			"Bytes of framed response traffic read by the RPC client."),
		Reconnects: ins.Counter("rose_rpc_reconnects_total",
			"Successful transparent reconnects of resilient RPC links."),
		ReplayedFrames: ins.Counter("rose_rpc_replayed_frames_total",
			"Unanswered request frames retransmitted after reconnects."),
		ChecksumErrors: ins.Counter("rose_rpc_checksum_errors_total",
			"Inbound frames rejected by the RPC client for CRC-32C mismatch."),
		RoundTrip: ins.Histogram("rose_rpc_roundtrip_seconds",
			"Latency of synchronous RPC round-trips (flush to response).", nil),
	}
}

// EnvServerObs instruments the environment RPC server side.
type EnvServerObs struct {
	tracer  *Tracer
	log     *Logger
	seenRun atomic.Uint64

	Requests   *Counter
	BytesIn    *Counter
	BytesOut   *Counter
	ReplayHits *Counter
	Latency    *Histogram
}

func newEnvServerObs(ins Instruments, tr *Tracer, log *Logger) *EnvServerObs {
	return &EnvServerObs{
		tracer: tr,
		log:    log,
		Requests: ins.Counter("rose_env_server_requests_total",
			"RPC requests handled by the environment server."),
		BytesIn: ins.Counter("rose_env_server_bytes_in_total",
			"Bytes of framed request traffic read by the environment server."),
		BytesOut: ins.Counter("rose_env_server_bytes_out_total",
			"Bytes of framed response traffic written by the environment server."),
		ReplayHits: ins.Counter("rose_env_server_replay_hits_total",
			"Replayed requests answered from the session response cache instead of re-executing."),
		Latency: ins.Histogram("rose_env_server_request_seconds",
			"Wall time serving one RPC request (read to response written).", nil),
	}
}

// ObserveRequest records one served request ending now: latency plus a
// serve span. When the request carried a trace context (runID != 0) the
// span is tagged with the client's quantum sequence — the server half of
// the cross-host correlation pair — and the first sight of a run ID is
// logged (the server "adopts" the client's run).
func (o *EnvServerObs) ObserveRequest(name string, runID, seq uint64, start time.Time) {
	if o == nil {
		return
	}
	end := time.Now()
	o.Latency.Observe(end.Sub(start))
	if runID != 0 {
		if o.seenRun.Swap(runID) != runID {
			o.log.Info("env server adopted trace run", Hex("run_id", runID), Uint("seq", seq))
		}
		o.tracer.SpanQ(name, TrackServe, start, end, seq)
	} else {
		o.tracer.Span(name, TrackServe, start, end)
	}
}

// SeenRun returns the run ID most recently observed on the wire (0 before
// any traced request) — what the loopback e2e test asserts against the
// client's context.
func (o *EnvServerObs) SeenRun() uint64 {
	if o == nil {
		return 0
	}
	return o.seenRun.Load()
}

// BridgeObs instruments the RoSÉ BRIDGE hardware queues: live occupancy,
// high-water marks, and back-pressure drops.
type BridgeObs struct {
	RxBytes    *Gauge
	TxBytes    *Gauge
	RxBytesHWM *Gauge
	TxBytesHWM *Gauge
	RxDrops    *Counter
}

func newBridgeObs(ins Instruments) *BridgeObs {
	return &BridgeObs{
		RxBytes: ins.Gauge("rose_bridge_rx_queue_bytes",
			"Current host-to-SoC (RX) queue occupancy in bytes."),
		TxBytes: ins.Gauge("rose_bridge_tx_queue_bytes",
			"Current SoC-to-host (TX) queue occupancy in bytes."),
		RxBytesHWM: ins.Gauge("rose_bridge_rx_queue_bytes_hwm",
			"High-water mark of RX queue occupancy in bytes."),
		TxBytesHWM: ins.Gauge("rose_bridge_tx_queue_bytes_hwm",
			"High-water mark of TX queue occupancy in bytes."),
		RxDrops: ins.Counter("rose_bridge_rx_drops_total",
			"Host-to-SoC packets rejected by a full RX queue."),
	}
}

// SoCObs instruments the SoC engine: throttle stalls at the bridge
// interface and mirrors of the engine's cycle and energy accounting.
type SoCObs struct {
	RecvStalls *Counter
	SendStalls *Counter

	Cycles        *Counter
	ComputeCycles *Counter
	AccelCycles   *Counter
	IOCycles      *Counter
	IdleCycles    *Counter
	PacketsIn     *Counter
	PacketsOut    *Counter
	Syncs         *Counter

	// Energy ledger mirrors (picojoules, per domain) and the run-average
	// power gauge — written by MirrorEnergy once per quantum, same
	// single-ownership scheme as Mirror.
	EnergyCorePJ   *Counter
	EnergyAccelPJ  *Counter
	EnergyMemPJ    *Counter
	EnergyStaticPJ *Counter
	AvgPowerMW     *Gauge
}

func newSoCObs(ins Instruments) *SoCObs {
	return &SoCObs{
		RecvStalls: ins.Counter("rose_soc_recv_stalls_total",
			"Quanta the SoC idled against an empty bridge RX queue."),
		SendStalls: ins.Counter("rose_soc_send_stalls_total",
			"Quanta the SoC idled against a full bridge TX queue."),
		Cycles: ins.Counter("rose_soc_cycles_total",
			"Total simulated SoC cycles."),
		ComputeCycles: ins.Counter("rose_soc_compute_cycles_total",
			"Simulated cycles charged to CPU compute."),
		AccelCycles: ins.Counter("rose_soc_accel_cycles_total",
			"Simulated cycles charged to the DNN accelerator."),
		IOCycles: ins.Counter("rose_soc_io_cycles_total",
			"Simulated cycles charged to bridge I/O transfers."),
		IdleCycles: ins.Counter("rose_soc_idle_cycles_total",
			"Simulated cycles the SoC spent stalled/idle."),
		PacketsIn: ins.Counter("rose_soc_packets_in_total",
			"Host-to-SoC data packets delivered through the bridge."),
		PacketsOut: ins.Counter("rose_soc_packets_out_total",
			"SoC-to-host data packets drained through the bridge."),
		Syncs: ins.Counter("rose_soc_syncs_total",
			"Synchronization grants received by the bridge control unit."),
		EnergyCorePJ: ins.Counter("rose_energy_core_pj_total",
			"Dynamic energy charged to the CPU core domain, in picojoules."),
		EnergyAccelPJ: ins.Counter("rose_energy_accel_pj_total",
			"Dynamic energy charged to the DNN accelerator domain, in picojoules."),
		EnergyMemPJ: ins.Counter("rose_energy_mem_pj_total",
			"Dynamic energy charged to the memory system (stream, MMIO, DRAM), in picojoules."),
		EnergyStaticPJ: ins.Counter("rose_energy_static_pj_total",
			"Static (leakage) energy integrated over all elapsed cycles, in picojoules."),
		AvgPowerMW: ins.Gauge("rose_power_avg_milliwatts",
			"Run-average simulated power (total energy over elapsed simulated time), in milliwatts."),
	}
}

// Mirror overwrites the cycle-accounting counters with the engine's
// authoritative totals — called once per synchronization quantum so the
// engine keeps single ownership of its accounting (no double bookkeeping
// on the charge path).
func (o *SoCObs) Mirror(cycles, compute, accel, io, idle, pktsIn, pktsOut, syncs uint64) {
	if o == nil {
		return
	}
	o.Cycles.Store(cycles)
	o.ComputeCycles.Store(compute)
	o.AccelCycles.Store(accel)
	o.IOCycles.Store(io)
	o.IdleCycles.Store(idle)
	o.PacketsIn.Store(pktsIn)
	o.PacketsOut.Store(pktsOut)
	o.Syncs.Store(syncs)
}

// MirrorEnergy overwrites the energy-ledger counters with the engine's
// authoritative per-domain totals (dynamic pJ per domain, static pJ over
// all elapsed cycles) and the run-average power gauge — the energy twin of
// Mirror, called from the same per-quantum site.
func (o *SoCObs) MirrorEnergy(corePJ, accelPJ, memPJ, staticPJ uint64, avgMilliwatts int64) {
	if o == nil {
		return
	}
	o.EnergyCorePJ.Store(corePJ)
	o.EnergyAccelPJ.Store(accelPJ)
	o.EnergyMemPJ.Store(memPJ)
	o.EnergyStaticPJ.Store(staticPJ)
	o.AvgPowerMW.Set(avgMilliwatts)
}

// AppObs instruments the companion-computer application: inference count
// and simulated request-to-command latency.
type AppObs struct {
	Inferences *Counter
	Fallbacks  *Counter
	Latency    *Histogram
}

func newAppObs(ins Instruments) *AppObs {
	return &AppObs{
		Inferences: ins.Counter("rose_app_inferences_total",
			"Control-loop inferences completed."),
		Fallbacks: ins.Counter("rose_app_fallbacks_total",
			"Inferences served by the small network (dynamic runtime)."),
		Latency: ins.Histogram("rose_app_inference_latency_seconds",
			"Simulated request-to-command latency of one control iteration.", nil),
	}
}

// Summary is the end-of-run digest of a suite — the numbers the CLI health
// strip prints (quanta/sec, mean quantum wall time, overlap stall share,
// traffic and queue high-water marks).
type Summary struct {
	WallSeconds    float64
	Quanta         uint64
	QuantaPerSec   float64
	MeanQuantumSec float64
	P99QuantumSec  float64

	// Phase shares of total measured quantum wall time, in [0, 1].
	// RTLShare, ExchangeShare, and StallShare are phases of the
	// synchronizer track, so together they break down quantum wall time
	// and sum to at most 1. EnvShare is the environment worker track's
	// busy time over the same denominator: in overlapped mode the env
	// quantum runs concurrently with the RTL quantum, so it is NOT part
	// of the wall-time breakdown (env time the synchronizer actually
	// waited on already shows up as StallShare) and must be presented as
	// a concurrent-track percentage.
	RTLShare      float64
	EnvShare      float64
	ExchangeShare float64
	StallShare    float64

	RPCRoundTrips uint64
	RPCBytesIn    uint64
	RPCBytesOut   uint64

	BridgeRxHWM int64
	BridgeTxHWM int64
	RxDrops     uint64

	Inferences   uint64
	MeanInferSec float64

	// Simulated energy per domain in joules, mirrored from the SoC engine's
	// ledger, plus the run-average simulated power. HasEnergy distinguishes
	// "energy accounting off / no mission ran" from a legitimately tiny
	// total, so presenters can omit the power line instead of printing
	// zeros.
	EnergyCoreJ   float64
	EnergyAccelJ  float64
	EnergyMemJ    float64
	EnergyStaticJ float64
	EnergyTotalJ  float64
	AvgPowerW     float64
	HasEnergy     bool

	TraceEvents  int
	TraceDropped uint64

	// RunID is the trace context's hex run ID ("" when absent).
	RunID string

	// Watchdog stalls and flight-recorder trigger counts — the post-mortem
	// story of the run (nonzero means a blackbox.json exists).
	QuantumStalls uint64
	PanicDumps    uint64
	WatchdogDumps uint64
	FaultDumps    uint64
	ManualDumps   uint64

	// Structured event log volume.
	LogEvents      uint64
	LogOverwritten uint64
}

// Summary digests the suite's current state. Safe to call while the run is
// still recording (values are a consistent-enough live snapshot). Reads go
// through the registry's aggregate helpers so per-mission scoped series
// (fleets, sweeps) are folded in: counters and occupancy sum, high-water
// marks take the fleet maximum, histograms merge bucket-wise.
func (s *Suite) Summary() Summary {
	if s == nil {
		return Summary{}
	}
	r := s.Registry
	quantum := r.AggHist("rose_cosim_quantum_seconds")
	sum := Summary{
		WallSeconds:   time.Since(s.start).Seconds(),
		Quanta:        r.AggCounter("rose_cosim_quanta_total"),
		RPCRoundTrips: r.AggCounter("rose_rpc_roundtrips_total"),
		RPCBytesIn:    r.AggCounter("rose_rpc_bytes_in_total"),
		RPCBytesOut:   r.AggCounter("rose_rpc_bytes_out_total"),
		BridgeRxHWM:   r.MaxGauge("rose_bridge_rx_queue_bytes_hwm"),
		BridgeTxHWM:   r.MaxGauge("rose_bridge_tx_queue_bytes_hwm"),
		RxDrops:       r.AggCounter("rose_bridge_rx_drops_total"),
		Inferences:    r.AggCounter("rose_app_inferences_total"),
		MeanInferSec:  r.AggHist("rose_app_inference_latency_seconds").Mean().Seconds(),
		TraceEvents:   s.Tracer.Len(),
		TraceDropped:  s.Tracer.Dropped(),
	}
	if s.Run != nil {
		sum.RunID = s.Run.RunIDHex()
	}
	corePJ := r.AggCounter("rose_energy_core_pj_total")
	accelPJ := r.AggCounter("rose_energy_accel_pj_total")
	memPJ := r.AggCounter("rose_energy_mem_pj_total")
	staticPJ := r.AggCounter("rose_energy_static_pj_total")
	if totalPJ := corePJ + accelPJ + memPJ + staticPJ; totalPJ > 0 {
		sum.HasEnergy = true
		sum.EnergyCoreJ = float64(corePJ) * 1e-12
		sum.EnergyAccelJ = float64(accelPJ) * 1e-12
		sum.EnergyMemJ = float64(memPJ) * 1e-12
		sum.EnergyStaticJ = float64(staticPJ) * 1e-12
		sum.EnergyTotalJ = float64(totalPJ) * 1e-12
		// Fleet power is additive: N concurrent simulated SoCs draw the sum
		// of their rails.
		sum.AvgPowerW = float64(r.AggGauge("rose_power_avg_milliwatts")) / 1e3
	}
	if rec := s.Recorder; rec != nil {
		sum.QuantumStalls = rec.Stalls.Value()
		sum.PanicDumps = rec.PanicDumps.Value()
		sum.WatchdogDumps = rec.WatchdogDumps.Value()
		sum.FaultDumps = rec.FaultDumps.Value()
		sum.ManualDumps = rec.ManualDumps.Value()
	}
	sum.LogEvents = s.Log.Count()
	sum.LogOverwritten = s.Log.Overwritten()
	sum.MeanQuantumSec = quantum.Mean().Seconds()
	sum.P99QuantumSec = quantum.Quantile(0.99).Seconds()
	if sum.WallSeconds > 0 {
		sum.QuantaPerSec = float64(sum.Quanta) / sum.WallSeconds
	}
	if total := quantum.Sum().Seconds(); total > 0 {
		sum.RTLShare = r.AggHist("rose_cosim_rtl_quantum_seconds").Sum().Seconds() / total
		sum.EnvShare = r.AggHist("rose_cosim_env_quantum_seconds").Sum().Seconds() / total
		sum.ExchangeShare = r.AggHist("rose_cosim_exchange_seconds").Sum().Seconds() / total
		sum.StallShare = r.AggHist("rose_cosim_overlap_stall_seconds").Sum().Seconds() / total
	}
	return sum
}
