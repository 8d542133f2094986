package soc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"

	"repro/internal/bridge"
	"repro/internal/fprint"
	"repro/internal/obs"
	"repro/internal/packet"
)

// Runtime is the execution environment a target program sees: the services
// of the simulated SoC. Every call advances simulated time through the
// engine's timing models; the program itself never observes host time or
// any simulator API (the paper's simulation abstraction, §3.4.2).
type Runtime struct {
	m     *Machine
	yield func(request) bool // hands a request to the engine; false = killed
}

// Program is the application deployed on the simulated companion computer.
// It runs as a coroutine against the engine; returning ends the workload.
type Program func(rt *Runtime) error

// StateProgram is a resumable Program: a deterministic state machine whose
// entire inter-request state lives in a serializable blob. The contract that
// makes mid-flight snapshots possible (see snap.go):
//
//   - Run must update the program's resume state *before* issuing each
//     Runtime request, so the state observed while the request is in flight
//     names exactly that request (the coroutine switch into the engine is
//     the memory barrier).
//   - After a RestoreState, Run must re-issue the request that was in
//     flight at capture; the engine swallows it and substitutes the
//     partially-charged original.
//
// SnapshotState is only called while the program coroutine is parked in a
// Runtime request, so it may read the same fields Run writes.
type StateProgram interface {
	Run(rt *Runtime) error
	// SnapshotState serializes the resume state at the current request
	// boundary.
	SnapshotState() ([]byte, error)
	// RestoreState installs a previously captured resume state; the next
	// Run picks up from it.
	RestoreState([]byte) error
}

// Machine is one simulated SoC instance. It implements the RTL side of the
// co-simulation: the synchronizer pushes packets, grants cycle quanta via
// Step, and pulls responses, mirroring FireSim + RoSÉ BRIDGE.
type Machine struct {
	params   Params
	core     CoreParams
	kind     CoreKind
	hasAcc   bool
	energy   EnergyParams
	energyOn bool // false = energy accounting disabled (Config.EnergyOff)
	br       *bridge.Bridge

	cycle uint64
	stats Stats
	obs   *obs.SoCObs // nil = observability disabled

	// The program coroutine (iter.Pull): next resumes the program on the
	// caller's goroutine until it issues its next request (false once it
	// has returned, its error in runErr); stop unwinds a parked program.
	// res is the slot a completed request's response waits in until the
	// program is resumed.
	next func() (request, bool)
	stop func()
	res  response

	// pending is a value slot (validity tracked by hasPending) so carrying
	// a partially-served request across quanta never heap-allocates — the
	// engine serves millions of requests per simulated second.
	pending    request // partially-served request carried across quanta
	hasPending bool
	pendLeft   uint64   // cycles still to charge for the pending request
	fetched    *request // next request pulled in by SnapState, not yet priced
	done       bool
	runErr     error
	grantBuf   [8]byte // scratch payload for the per-quantum SYNC_GRANT

	sp StateProgram // non-nil for resumable machines (NewStateMachine)
}

type reqKind int

const (
	reqCompute reqKind = iota
	reqRecv
	reqTryRecv
	reqSend
	reqNow
)

type request struct {
	kind   reqKind
	cycles uint64        // compute: cycles to charge
	accel  bool          // compute: attribute to the accelerator
	energy uint64        // compute: dynamic pJ for the core/accel domain
	memPJ  uint64        // compute: dynamic pJ for the memory domain
	pkt    packet.Packet // send
}

type response struct {
	pkt   packet.Packet
	ok    bool
	cycle uint64
}

// errKilled signals program teardown via panic/recover.
var errKilled = errors.New("soc: machine closed")

// Config describes one SoC instance (a Table 2 row).
type Config struct {
	Core    CoreKind
	Gemmini bool   // DNN accelerator present
	Params  Params // zero value selects DefaultParams
	// Bridge queue capacities in bytes (0 selects defaults).
	RxQueueBytes, TxQueueBytes int
	// Obs instruments the engine: bridge-interface stall counters and
	// mirrors of the cycle accounting (nil = disabled).
	Obs *obs.SoCObs
	// Energy overrides the calibrated energy model (zero value selects
	// EnergyFor(Core, Gemmini)); EnergyOff disables energy accounting
	// entirely (the ledger stays zero and no energy math runs).
	Energy    EnergyParams
	EnergyOff bool
}

// NewMachine builds a machine around the program coroutine. The program
// does not execute until cycles are granted via Step.
func NewMachine(cfg Config, prog Program) *Machine {
	m := newMachine(cfg)
	m.launch(prog)
	return m
}

// NewStateMachine builds a machine around a resumable StateProgram; such a
// machine additionally supports SnapState/RestoreMachine (see snap.go).
func NewStateMachine(cfg Config, sp StateProgram) *Machine {
	m := newMachine(cfg)
	m.sp = sp
	m.launch(sp.Run)
	return m
}

func newMachine(cfg Config) *Machine {
	p := cfg.Params
	if p.ClockHz == 0 {
		p = DefaultParams()
	}
	e := cfg.Energy
	if e == (EnergyParams{}) {
		e = EnergyFor(cfg.Core, cfg.Gemmini)
	}
	if cfg.EnergyOff {
		e = EnergyParams{}
	}
	return &Machine{
		params:   p,
		core:     Core(cfg.Core),
		kind:     cfg.Core,
		hasAcc:   cfg.Gemmini,
		energy:   e,
		energyOn: !cfg.EnergyOff,
		obs:      cfg.Obs,
		br:       bridge.New(cfg.RxQueueBytes, cfg.TxQueueBytes),
	}
}

// launch wraps the program as the machine's coroutine, which first runs at
// the first next. The errKilled panic is how stop unwinds a parked program,
// so it is recovered here; any other panic surfaces on the goroutine that
// resumed the program (Step, SnapState or RestoreMachine).
func (m *Machine) launch(prog Program) {
	m.next, m.stop = iter.Pull(func(yield func(request) bool) {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); !ok || !errors.Is(err, errKilled) {
					panic(r)
				}
			}
		}()
		m.runErr = prog(&Runtime{m: m, yield: yield})
	})
}

// Params returns the machine's timing parameters.
func (m *Machine) Params() Params { return m.params }

// CoreKind returns the configured CPU model.
func (m *Machine) CoreKind() CoreKind { return m.kind }

// CoreParams returns the CPU timing parameters.
func (m *Machine) CoreParams() CoreParams { return m.core }

// HasGemmini reports whether the DNN accelerator is present.
func (m *Machine) HasGemmini() bool { return m.hasAcc }

// EnergyParams returns the machine's energy model (the zero value when
// accounting is disabled).
func (m *Machine) EnergyParams() EnergyParams { return m.energy }

// EnergyBreakdown returns the dynamic ledger plus the static energy
// integrated over the cycles elapsed so far.
func (m *Machine) EnergyBreakdown() EnergyBreakdown { return m.energy.Breakdown(m.Stats()) }

// Cycle returns the current simulated cycle.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Stats returns a copy of the activity counters.
func (m *Machine) Stats() Stats {
	s := m.stats
	s.Cycles = m.cycle
	return s
}

// Done reports whether the target program has exited.
func (m *Machine) Done() bool { return m.done }

// Err returns the program's exit error, if it has exited.
func (m *Machine) Err() error { return m.runErr }

// Bridge exposes the machine's RoSÉ BRIDGE for host-side wiring.
func (m *Machine) Bridge() *bridge.Bridge { return m.br }

// Push delivers host→SoC packets at a synchronization boundary. Data
// packets rejected by a full RX queue are dropped and counted by the bridge
// (hardware back-pressure with no retransmit, as in an undersized bridge
// FIFO); malformed synchronization packets are fatal.
func (m *Machine) Push(pkts []packet.Packet) error {
	for _, p := range pkts {
		if err := m.br.HandleHostPacket(p); err != nil {
			if !p.Type.IsSync() {
				continue // counted in bridge Stats().RxDrops
			}
			return err
		}
		if !p.Type.IsSync() {
			m.stats.PacketsIn++
		}
	}
	return nil
}

// Pull drains SoC→host packets at a synchronization boundary.
func (m *Machine) Pull() ([]packet.Packet, error) {
	out := m.br.DrainToHost()
	m.stats.PacketsOut += uint64(len(out))
	return out, nil
}

// Close tears down the program coroutine: a program parked in a request
// unwinds from it (the Runtime call panics errKilled). The machine must not
// be used afterwards.
func (m *Machine) Close() {
	m.stop()
	m.done = true
}

// Step grants the machine a quantum of cycles (a SYNC_GRANT through the
// bridge control unit) and runs the target until the quantum is exhausted,
// the program blocks on I/O that cannot make progress, or the program
// exits. It always consumes exactly `cycles` of simulated time — stalls are
// idle cycles, exactly as an RTL simulation would burn clock ticks while
// the core spins. Returns the cycles consumed (== cycles).
func (m *Machine) Step(cycles uint64) (uint64, error) {
	if m.done {
		m.idle(cycles)
		return cycles, nil
	}
	// The grant payload is a machine-owned scratch: sync packets terminate
	// in the bridge control unit (read via AsU64, never stored), and heap-
	// allocating packet.U64's payload every quantum would be the hot loop's
	// only allocation.
	binary.LittleEndian.PutUint64(m.grantBuf[:], cycles)
	if err := m.br.HandleHostPacket(packet.Packet{Type: packet.SyncGrant, Payload: m.grantBuf[:]}); err != nil {
		return 0, err
	}
	m.stats.Syncs++
	for m.br.Budget() > 0 {
		if m.done {
			m.idle(m.br.ConsumeBudget(m.br.Budget()))
			break
		}
		// Serve any partially-charged request first.
		if m.hasPending {
			if !m.chargePending() {
				break // budget exhausted mid-charge
			}
			continue
		}
		// A request pulled in early by SnapState quiescing the program.
		if m.fetched != nil {
			r := *m.fetched
			m.fetched = nil
			m.beginRequest(r)
			continue
		}
		// Resume the program until its next request (or its exit).
		r, ok := m.next()
		if !ok {
			m.done = true
			continue
		}
		m.beginRequest(r)
	}
	// Advance the rolling determinism fingerprint over the quantum's end
	// state. Always-on: a dozen integer folds per quantum, no allocation.
	h := m.stats.Fingerprint
	if h == 0 {
		h = fprint.Init // fresh machine or pre-fingerprint snapshot image
	}
	h = fprint.Fold(h, m.cycle)
	h = fprint.Fold(h, m.stats.ComputeCycles)
	h = fprint.Fold(h, m.stats.AccelCycles)
	h = fprint.Fold(h, m.stats.IOCycles)
	h = fprint.Fold(h, m.stats.IdleCycles)
	h = fprint.Fold(h, m.stats.PacketsIn)
	h = fprint.Fold(h, m.stats.PacketsOut)
	h = fprint.Fold(h, m.stats.Syncs)
	h = fprint.Fold(h, m.stats.Energy.CorePJ)
	h = fprint.Fold(h, m.stats.Energy.AccelPJ)
	h = fprint.Fold(h, m.stats.Energy.MemPJ)
	m.stats.Fingerprint = h
	if m.obs != nil {
		s := m.stats
		m.obs.Mirror(m.cycle, s.ComputeCycles, s.AccelCycles, s.IOCycles,
			s.IdleCycles, s.PacketsIn, s.PacketsOut, s.Syncs)
		if m.energyOn {
			st := m.energy.Static(m.cycle)
			b := EnergyBreakdown{Dynamic: s.Energy, Static: st}
			m.obs.MirrorEnergy(s.Energy.CorePJ, s.Energy.AccelPJ, s.Energy.MemPJ,
				st.TotalPJ(), int64(b.AvgPowerWatts(m.cycle, m.params.ClockHz)*1e3))
		}
	}
	return cycles, nil
}

// MaxRunQuanta caps the quanta one StepRun grants, and the count a server
// accepts in an RTLStepRun request.
const MaxRunQuanta = 64

// QuantumMark is what the synchronizer folds into its fingerprint from the
// RTL side after a quantum: the cycle, the engine fingerprint
// (Stats().Fingerprint) and the total energy (EnergyBreakdown().TotalPJ()).
type QuantumMark struct {
	Cycle, Fingerprint, EnergyPJ uint64
}

// mark returns the machine's QuantumMark.
func (m *Machine) mark() QuantumMark {
	return QuantumMark{Cycle: m.cycle, Fingerprint: m.stats.Fingerprint, EnergyPJ: m.EnergyBreakdown().TotalPJ()}
}

// StepRun grants up to len(marks) quanta of cycles each, one Step at a
// time, and stops after the first quantum that leaves a packet in the
// bridge's TX queue or the program exited: the synchronizer must see
// either before it grants more. marks[i] receives quantum i's mark, and n
// counts the quanta stepped. No packet reaches the SoC inside a run, so
// each quantum steps exactly as a lone Step would.
func (m *Machine) StepRun(cycles uint64, marks []QuantumMark) (n int, err error) {
	for n < len(marks) {
		if _, err := m.Step(cycles); err != nil {
			return n, err
		}
		marks[n] = m.mark()
		n++
		if m.done || m.br.PeekTxLen() > 0 {
			break
		}
	}
	return n, nil
}

// beginRequest prices a request and either stalls (I/O not ready) or starts
// charging cycles for it.
func (m *Machine) beginRequest(r request) {
	switch r.kind {
	case reqNow:
		// Reading the cycle CSR costs one cycle; charging it also
		// guarantees forward progress for programs that only poll time.
		r.kind = reqCompute
		r.cycles = 1
		r.energy = ScalarEnergyPJ(m.energy, 1)
		m.chargeEnergyCompute(&r)
		m.pending, m.hasPending = r, true
		m.pendLeft = 1
	case reqCompute:
		m.chargeEnergyCompute(&r)
		m.pending, m.hasPending = r, true
		m.pendLeft = r.cycles
	case reqTryRecv:
		m.charge(m.params.PollCycles, chargeIO)
		m.chargeEnergyPoll()
		if pkt, ok := m.br.RecvData(); ok {
			// Transfer cost then respond. Model it as a pending charge
			// with the response deferred to completion.
			r.pkt = pkt
			r.cycles = m.params.TransferCycles(pkt.Size())
			m.chargeEnergyTransfer(pkt.Size())
			m.pending, m.hasPending = r, true
			m.pendLeft = r.cycles
		} else {
			m.res = response{ok: false, cycle: m.cycle}
		}
	case reqRecv:
		if pkt, ok := m.br.RecvData(); ok {
			r.pkt = pkt
			r.cycles = m.params.TransferCycles(pkt.Size())
			m.chargeEnergyTransfer(pkt.Size())
			m.pending, m.hasPending = r, true
			m.pendLeft = r.cycles
		} else {
			// Nothing to receive: the core stalls for the remainder of
			// the quantum. The request stays pending with zero charge;
			// the next quantum retries after new packets arrive.
			m.pending, m.hasPending = r, true
			m.pendLeft = 0
			if m.obs != nil {
				m.obs.RecvStalls.Inc()
			}
			m.idle(m.br.ConsumeBudget(m.br.Budget()))
		}
	case reqSend:
		if m.br.SendData(r.pkt) {
			r.cycles = m.params.TransferCycles(r.pkt.Size())
			m.chargeEnergyTransfer(r.pkt.Size())
			m.pending, m.hasPending = r, true
			m.pendLeft = r.cycles
		} else {
			// TX queue full: stall until the synchronizer drains it.
			m.pending, m.hasPending = r, true
			m.pendLeft = 0
			if m.obs != nil {
				m.obs.SendStalls.Inc()
			}
			m.idle(m.br.ConsumeBudget(m.br.Budget()))
		}
	}
}

type chargeClass int

const (
	chargeCompute chargeClass = iota
	chargeAccel
	chargeIO
)

// chargePending advances a pending request; returns false when the budget
// ran out before the request completed.
func (m *Machine) chargePending() bool {
	r := &m.pending
	// Retry previously-blocked I/O.
	if m.pendLeft == 0 && (r.kind == reqRecv || r.kind == reqTryRecv) {
		if pkt, ok := m.br.RecvData(); ok {
			r.pkt = pkt
			m.pendLeft = m.params.TransferCycles(pkt.Size())
			m.chargeEnergyTransfer(pkt.Size())
		} else {
			if m.obs != nil {
				m.obs.RecvStalls.Inc()
			}
			m.idle(m.br.ConsumeBudget(m.br.Budget()))
			return false
		}
	}
	if m.pendLeft == 0 && r.kind == reqSend {
		if m.br.SendData(r.pkt) {
			m.pendLeft = m.params.TransferCycles(r.pkt.Size())
			m.chargeEnergyTransfer(r.pkt.Size())
		} else {
			if m.obs != nil {
				m.obs.SendStalls.Inc()
			}
			m.idle(m.br.ConsumeBudget(m.br.Budget()))
			return false
		}
	}

	class := chargeIO
	if r.kind == reqCompute {
		class = chargeCompute
		if r.accel {
			class = chargeAccel
		}
	}
	granted := m.br.ConsumeBudget(m.pendLeft)
	m.charge(granted, class)
	m.pendLeft -= granted
	if m.pendLeft > 0 {
		return false
	}
	// Complete: leave the response for the program's next resume.
	m.hasPending = false
	switch r.kind {
	case reqCompute:
		m.res = response{cycle: m.cycle}
	case reqRecv, reqTryRecv:
		m.res = response{pkt: r.pkt, ok: true, cycle: m.cycle}
	case reqSend:
		m.res = response{ok: true, cycle: m.cycle}
	}
	m.pending = request{} // drop the packet reference
	return true
}

// chargeEnergyCompute books a compute request's dynamic energy at pricing
// time (not pro-rata per cycle): a request interrupted mid-charge by a
// snapshot carries its full energy in the captured ledger, and the restore
// path re-arms the remaining cycles without re-pricing — which is what makes
// snapshot→restore→run totals equal an uninterrupted run, bit for bit.
func (m *Machine) chargeEnergyCompute(r *request) {
	if !m.energyOn {
		return
	}
	if r.accel {
		m.stats.Energy.AccelPJ += r.energy
	} else {
		m.stats.Energy.CorePJ += r.energy
	}
	m.stats.Energy.MemPJ += r.memPJ
}

// chargeEnergyPoll books one status-register poll: a single bus word of
// MMIO traffic.
func (m *Machine) chargeEnergyPoll() {
	if !m.energyOn {
		return
	}
	m.stats.Energy.MemPJ += uint64(float64(m.params.BusBytes) * m.energy.MMIOPJPerByte)
}

// chargeEnergyTransfer books one packet's MMIO queue traffic, priced per
// bus beat like TransferCycles. Blocked sends/recvs are charged exactly once,
// when the retry finally prices the transfer.
func (m *Machine) chargeEnergyTransfer(n int) {
	if !m.energyOn {
		return
	}
	beats := (n + m.params.BusBytes - 1) / m.params.BusBytes
	m.stats.Energy.MemPJ += uint64(float64(beats*m.params.BusBytes) * m.energy.MMIOPJPerByte)
}

func (m *Machine) charge(c uint64, class chargeClass) {
	m.cycle += c
	switch class {
	case chargeCompute:
		m.stats.ComputeCycles += c
	case chargeAccel:
		m.stats.AccelCycles += c
	case chargeIO:
		m.stats.IOCycles += c
	}
}

func (m *Machine) idle(c uint64) {
	m.cycle += c
	m.stats.IdleCycles += c
}

// --- Runtime: the program-facing API ---

// do hands r to the engine and parks the program until the engine resumes
// it with r's response in the machine's slot.
func (rt *Runtime) do(r request) response {
	if !rt.yield(r) {
		panic(errKilled)
	}
	return rt.m.res
}

// Now returns the current simulated cycle.
func (rt *Runtime) Now() uint64 { return rt.do(request{kind: reqNow}).cycle }

// NowSec returns the current simulated time in seconds.
func (rt *Runtime) NowSec() float64 { return rt.m.params.CyclesToSeconds(rt.Now()) }

// Compute charges `cycles` of CPU work to the simulated core. Dynamic
// energy defaults to general-purpose integer code at the core's effective
// IPC; callers that know their workload mix (the inference session) use
// ComputeEnergy instead.
func (rt *Runtime) Compute(cycles uint64) {
	if cycles == 0 {
		return
	}
	r := request{kind: reqCompute, cycles: cycles}
	if rt.m.energyOn {
		r.energy = ScalarEnergyPJ(rt.m.energy, uint64(float64(cycles)*rt.m.core.EffIPC))
	}
	rt.do(r)
}

// ComputeEnergy charges `cycles` of CPU work with an explicit dynamic
// energy bill: corePJ to the core domain, memPJ to the memory domain.
func (rt *Runtime) ComputeEnergy(cycles, corePJ, memPJ uint64) {
	if cycles == 0 {
		return
	}
	rt.do(request{kind: reqCompute, cycles: cycles, energy: corePJ, memPJ: memPJ})
}

// ComputeAccel charges `cycles` of accelerator-busy time. It panics if the
// SoC configuration has no accelerator — programs must dispatch to the CPU
// fallback instead. No dynamic energy is charged (static accelerator power
// still accrues); accelerated kernels bill their MAC and DMA energy through
// ComputeAccelEnergy.
func (rt *Runtime) ComputeAccel(cycles uint64) {
	if !rt.m.hasAcc {
		panic(fmt.Errorf("soc: ComputeAccel on a config without Gemmini"))
	}
	if cycles == 0 {
		return
	}
	rt.do(request{kind: reqCompute, cycles: cycles, accel: true})
}

// ComputeAccelEnergy charges `cycles` of accelerator-busy time with an
// explicit dynamic energy bill: accelPJ to the accelerator domain (MACs),
// memPJ to the memory domain (DMA traffic).
func (rt *Runtime) ComputeAccelEnergy(cycles, accelPJ, memPJ uint64) {
	if !rt.m.hasAcc {
		panic(fmt.Errorf("soc: ComputeAccel on a config without Gemmini"))
	}
	if cycles == 0 {
		return
	}
	rt.do(request{kind: reqCompute, cycles: cycles, accel: true, energy: accelPJ, memPJ: memPJ})
}

// Energy returns the machine's energy model (zero when accounting is off),
// letting the target runtime price its workload's energy alongside cycles.
func (rt *Runtime) Energy() EnergyParams { return rt.m.energy }

// HasGemmini reports whether the accelerator is available, letting one
// program binary adapt to the SoC configuration.
func (rt *Runtime) HasGemmini() bool { return rt.m.hasAcc }

// Core returns the CPU timing parameters (the program's runtime knows the
// platform it was built for, as the paper's ONNX Runtime build does).
func (rt *Runtime) Core() CoreParams { return rt.m.core }

// Params returns SoC-level timing parameters.
func (rt *Runtime) Params() Params { return rt.m.params }

// Recv blocks until a data packet is available in the bridge RX queue and
// returns it, charging the MMIO transfer cost. The block consumes idle
// simulated cycles — the source of the synchronization-induced latency the
// paper measures in Figure 16.
func (rt *Runtime) Recv() packet.Packet {
	res := rt.do(request{kind: reqRecv})
	return res.pkt
}

// TryRecv polls the RX queue once, charging the poll cost; ok is false when
// no data packet was pending.
func (rt *Runtime) TryRecv() (packet.Packet, bool) {
	res := rt.do(request{kind: reqTryRecv})
	return res.pkt, res.ok
}

// Send enqueues a data packet into the bridge TX queue, blocking (in
// simulated time) while the queue is full.
func (rt *Runtime) Send(p packet.Packet) {
	rt.do(request{kind: reqSend, pkt: p})
}
