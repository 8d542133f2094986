// Package soc implements the cycle-approximate SoC simulator that stands in
// for FireSim's FPGA-accelerated RTL simulation (paper §3.2). It models the
// Chipyard-generated designs of Table 2: a Rocket (in-order) or SonicBOOM
// (3-wide out-of-order) core, an optional Gemmini systolic-array accelerator
// (modeled in internal/gemmini), the system bus, caches, DRAM, and the RoSÉ
// BRIDGE as a memory-mapped I/O device.
//
// The engine is a deterministic cycle accountant: target programs run as Go
// coroutines whose every action is charged cycles by calibrated timing
// models, and the simulation advances strictly in the cycle quanta granted
// through the bridge control unit — the property that makes lockstep
// co-simulation (and its granularity artifacts, Figure 16) faithful.
package soc

import "fmt"

// CoreKind selects the CPU model.
type CoreKind int

const (
	// Rocket is the 5-stage in-order scalar core (Table 2 config B).
	Rocket CoreKind = iota
	// BOOM is the 3-wide superscalar out-of-order core (configs A and C).
	BOOM
)

func (k CoreKind) String() string {
	switch k {
	case Rocket:
		return "Rocket"
	case BOOM:
		return "BOOM"
	}
	return fmt.Sprintf("CoreKind(%d)", int(k))
}

// CoreParams are the calibrated per-core timing parameters.
type CoreParams struct {
	Name string
	// EffIPC is the effective instructions-per-cycle on general-purpose
	// integer code (control flow, bookkeeping, runtime overhead).
	EffIPC float64
	// FPMACsPerCycle is the sustained FP32 multiply-accumulate rate on
	// scalar matmul loops, including load traffic and cache misses. It is
	// calibrated end-to-end (not a microbenchmark figure): with
	// WorkloadScale applied, CPU-only ResNet14 inference costs ~6 s, the
	// latency the paper reports for config C (§5.1).
	FPMACsPerCycle float64
	// IntMACsPerCycle is the sustained int8 multiply-accumulate rate on
	// scalar matmul loops — roughly 2x the FP32 rate: narrower operands
	// quarter the load traffic, but the int32 accumulate chain still limits
	// the inner loop on these in-order/modestly-wide cores.
	IntMACsPerCycle float64
	// StreamBytesPerCycle is the sustained rate for streaming memory
	// operations (memcpy-like: im2col, pooling, activation functions).
	StreamBytesPerCycle float64
}

// Core returns the timing parameters for a core kind. Values are calibrated
// so the Table 3 latency shape holds (see EXPERIMENTS.md): BOOM sustains
// roughly 3x Rocket's scalar throughput, matching the paper's ~1.3x
// end-to-end gap once the accelerator does the heavy lifting.
func Core(k CoreKind) CoreParams {
	switch k {
	case Rocket:
		return CoreParams{
			Name:                "Rocket",
			EffIPC:              0.65,
			FPMACsPerCycle:      0.040,
			IntMACsPerCycle:     0.080,
			StreamBytesPerCycle: 1.6,
		}
	case BOOM:
		return CoreParams{
			Name:                "BOOM",
			EffIPC:              1.8,
			FPMACsPerCycle:      0.110,
			IntMACsPerCycle:     0.220,
			StreamBytesPerCycle: 4.5,
		}
	}
	panic(fmt.Sprintf("soc: unknown core kind %d", int(k)))
}

// Params are the SoC-level timing parameters shared by all configurations.
type Params struct {
	ClockHz float64 // target clock (the paper models a 1 GHz SoC)

	// MMIO costs for bridge queue accesses.
	MMIOSetupCycles uint64 // per-packet register handshake
	MMIOWordCycles  uint64 // per bus beat
	BusBytes        int    // system bus width in bytes (128-bit, §4.2.1)

	// PollCycles is the cost of one status-register poll.
	PollCycles uint64

	// WorkloadScale converts the reduced-size functional DNN workload into
	// paper-scale compute (see DESIGN.md §4.3): every DNN MAC and byte is
	// charged as WorkloadScale MACs/bytes of the full-resolution TrailNet
	// network the paper deploys. Calibrated in EXPERIMENTS.md.
	WorkloadScale float64
}

// DefaultParams returns the calibrated SoC parameters.
func DefaultParams() Params {
	return Params{
		ClockHz:         1e9,
		MMIOSetupCycles: 200,
		MMIOWordCycles:  8,
		BusBytes:        16,
		PollCycles:      40,
		WorkloadScale:   32,
	}
}

// CyclesToSeconds converts cycles to seconds at the configured clock.
func (p Params) CyclesToSeconds(c uint64) float64 { return float64(c) / p.ClockHz }

// SecondsToCycles converts seconds to whole cycles at the configured clock.
func (p Params) SecondsToCycles(s float64) uint64 {
	if s <= 0 {
		return 0
	}
	return uint64(s * p.ClockHz)
}

// TransferCycles returns the cost of moving one packet of n bytes through
// the bridge's memory-mapped queues.
func (p Params) TransferCycles(n int) uint64 {
	beats := (n + p.BusBytes - 1) / p.BusBytes
	return p.MMIOSetupCycles + uint64(beats)*p.MMIOWordCycles
}

// EnergyParams are the calibrated per-action energy costs — the energy
// counterpart of CoreParams/Params. Dynamic energy is charged in integer
// picojoules at the same points the engine charges cycles; static (leakage)
// power accrues per elapsed cycle in each power domain whether or not the
// domain is active, so idle time costs energy. The zero value never reaches
// the engine: Config substitutes EnergyFor's calibrated defaults, and
// Config.EnergyOff is the explicit off switch.
type EnergyParams struct {
	// Dynamic energy per operation (pJ/op).
	ScalarIntPJ    float64 // scalar integer instruction
	ScalarFPMACPJ  float64 // scalar fp32 multiply-accumulate
	ScalarIntMACPJ float64 // scalar int8 multiply-accumulate
	AccelFP32MACPJ float64 // Gemmini fp32 MAC (systolic array)
	AccelInt8MACPJ float64 // Gemmini int8 MAC (low-precision mode)

	// Dynamic energy per byte moved (pJ/B).
	StreamPJPerByte float64 // streaming loads/stores (im2col, pooling, glue)
	MMIOPJPerByte   float64 // bridge MMIO queue beats
	DRAMPJPerByte   float64 // accelerator DMA traffic to main memory

	// Static (leakage) power per domain (pJ/cycle), integrated over every
	// elapsed cycle.
	CoreStaticPJPerCycle  float64
	AccelStaticPJPerCycle float64
	MemStaticPJPerCycle   float64
}

// EnergyFor returns the calibrated energy model for a core kind, sized
// against published RISC-V SoC measurements at a 1 GHz-class node: the
// out-of-order BOOM pays ~3x Rocket's per-op energy (wide rename/issue
// machinery), the systolic array is an order of magnitude below scalar MACs
// per operation, and the int8 accelerator MAC is ~4x cheaper than fp32 —
// the energy leg of the precision trade-off axis. Accelerator rates (and
// its leakage) are zero when the config has no Gemmini.
func EnergyFor(k CoreKind, gemmini bool) EnergyParams {
	e := EnergyParams{
		StreamPJPerByte:      1.1,
		MMIOPJPerByte:        4,
		DRAMPJPerByte:        25,
		MemStaticPJPerCycle:  10,
		ScalarIntPJ:          6,
		ScalarFPMACPJ:        14,
		ScalarIntMACPJ:       5,
		CoreStaticPJPerCycle: 12,
	}
	if k == BOOM {
		e.ScalarIntPJ = 18
		e.ScalarFPMACPJ = 26
		e.ScalarIntMACPJ = 9
		e.StreamPJPerByte = 1.8
		e.CoreStaticPJPerCycle = 45
	}
	if gemmini {
		e.AccelFP32MACPJ = 1.4
		e.AccelInt8MACPJ = 0.35
		e.AccelStaticPJPerCycle = 8
	}
	return e
}

// Static integrates the leakage power over elapsed cycles. Each domain's
// rate is a pure function of the (already deterministic) cycle counter, so
// static energy needs no hot-path accounting and is snapshot-exact for free.
func (e EnergyParams) Static(cycles uint64) EnergyLedger {
	return EnergyLedger{
		CorePJ:  uint64(float64(cycles) * e.CoreStaticPJPerCycle),
		AccelPJ: uint64(float64(cycles) * e.AccelStaticPJPerCycle),
		MemPJ:   uint64(float64(cycles) * e.MemStaticPJPerCycle),
	}
}

// Breakdown pairs the dynamic ledger accumulated in the stats with the
// static energy derived from the same stats' cycle counter.
func (e EnergyParams) Breakdown(s Stats) EnergyBreakdown {
	return EnergyBreakdown{Dynamic: s.Energy, Static: e.Static(s.Cycles)}
}

// EnergyLedger is a per-domain energy total in integer picojoules. Integer
// pJ keep the ledger byte-comparable across runs, hosts, and snapshots —
// the same determinism contract the cycle counters obey.
type EnergyLedger struct {
	CorePJ  uint64 // CPU datapath
	AccelPJ uint64 // Gemmini systolic array
	MemPJ   uint64 // memory system: streams, MMIO beats, DRAM/DMA traffic
}

// TotalPJ sums the domains.
func (l EnergyLedger) TotalPJ() uint64 { return l.CorePJ + l.AccelPJ + l.MemPJ }

// Add accumulates another ledger into this one.
func (l *EnergyLedger) Add(o EnergyLedger) {
	l.CorePJ += o.CorePJ
	l.AccelPJ += o.AccelPJ
	l.MemPJ += o.MemPJ
}

// EnergyBreakdown is the full energy picture of a run: the dynamic ledger
// charged per action plus the static energy integrated over elapsed cycles.
type EnergyBreakdown struct {
	Dynamic EnergyLedger
	Static  EnergyLedger
}

// TotalPJ is the grand total (dynamic + static, all domains).
func (b EnergyBreakdown) TotalPJ() uint64 { return b.Dynamic.TotalPJ() + b.Static.TotalPJ() }

// TotalJoules converts the grand total to joules.
func (b EnergyBreakdown) TotalJoules() float64 { return float64(b.TotalPJ()) * 1e-12 }

// AvgPowerWatts is the mean power over the run: total energy divided by the
// simulated wall time of `cycles` at `clockHz`. Zero cycles yield zero.
func (b EnergyBreakdown) AvgPowerWatts(cycles uint64, clockHz float64) float64 {
	if cycles == 0 {
		return 0
	}
	return b.TotalJoules() / (float64(cycles) / clockHz)
}

// Stats aggregates engine activity, the raw material for the paper's
// metrics (latency, accelerator activity factor, simulator throughput).
type Stats struct {
	Cycles        uint64 // total simulated cycles
	ComputeCycles uint64 // cycles charged to CPU work
	AccelCycles   uint64 // cycles during which the DNN accelerator was busy
	IOCycles      uint64 // cycles spent on bridge transfers
	IdleCycles    uint64 // cycles stalled waiting on I/O or with no work
	PacketsIn     uint64
	PacketsOut    uint64
	Syncs         uint64 // Step() invocations (synchronization quanta)
	// Energy is the dynamic-energy ledger, charged at the same pricing
	// points as the cycle counters above (static energy is derived from
	// Cycles via EnergyParams.Static, never accumulated).
	Energy EnergyLedger
	// Fingerprint is the engine's rolling determinism fingerprint
	// (internal/fprint), advanced at the end of every Step over the cycle,
	// packet, and energy counters above. Two engines that executed the same
	// quanta hold the same chain. It is a Stats field, so the remote-RTL
	// status codec on every RTLStepped/RTLBatch reply and the gob of a
	// snapshot image carry it with the other counters. Pre-fingerprint
	// snapshot images decode it as 0 and the chain restarts from the FNV
	// basis.
	Fingerprint uint64
}

// ActivityFactor returns the fraction of simulated time the accelerator was
// actively executing layers (Figure 13's metric).
func (s Stats) ActivityFactor() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.AccelCycles) / float64(s.Cycles)
}
