// Package ort is the inference runtime deployed on the simulated companion
// computer — the stand-in for the paper's RISC-V port of ONNX Runtime with
// Gemmini execution support (§3.3). A Session owns one loaded model; Run
// executes an inference functionally (real FP32 math on the real image)
// while charging the simulated SoC the cycle cost of every operation:
// matmuls go to the Gemmini timing model when the SoC has the accelerator
// and to the scalar-core matmul model otherwise, and bandwidth-bound passes
// (im2col, BN, ReLU, pooling) are charged to the CPU stream model.
//
// Sessions support two datapaths (dnn.Precision): full FP32, and the int8
// quantized mode modeling Gemmini's native low-precision datapath — conv
// GEMMs run int8×int8→int32 and are priced on the doubled-throughput mesh,
// with an extra stream charge for the per-layer quantize/dequantize passes.
// The classifier heads (1×K×3 GEMMs) stay FP32 on both datapaths.
//
// The paper's dynamic runtime hosts two Sessions at once (§5.3); Session is
// cheap and stateless across Runs to support exactly that.
package ort

import (
	"fmt"

	"repro/internal/dnn"
	"repro/internal/gemmini"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// Session is one loaded model ready to execute on a simulated SoC.
// A Session may not be shared between goroutines: Run reuses a per-session
// inference workspace. Each concurrent mission owns its own sessions.
type Session struct {
	net  *dnn.Net
	gem  gemmini.Config
	ops  []dnn.OpDesc
	ws   *tensor.Workspace
	prec dnn.Precision

	// perRunOverheadInstrs models runtime bookkeeping per inference
	// (graph traversal, allocator, syscall overhead).
	perRunOverheadInstrs uint64
	// perOpOverheadInstrs models per-node dispatch overhead.
	perOpOverheadInstrs uint64
}

// NewSession loads a model into a session with the given accelerator
// configuration (used only when the SoC it runs on has Gemmini), on the
// default FP32 datapath.
func NewSession(net *dnn.Net, gem gemmini.Config) (*Session, error) {
	return NewSessionP(net, gem, dnn.PrecisionFP32)
}

// NewSessionP is NewSession with an explicit precision datapath.
func NewSessionP(net *dnn.Net, gem gemmini.Config, prec dnn.Precision) (*Session, error) {
	if net == nil {
		return nil, fmt.Errorf("ort: nil model")
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("ort: invalid model: %w", err)
	}
	if err := gem.Validate(); err != nil {
		return nil, err
	}
	if prec != dnn.PrecisionFP32 && prec != dnn.PrecisionInt8 {
		return nil, fmt.Errorf("ort: unsupported precision %v", prec)
	}
	return &Session{
		net:                  net,
		gem:                  gem,
		ops:                  net.Describe(),
		ws:                   tensor.NewWorkspace(),
		prec:                 prec,
		perRunOverheadInstrs: 400_000,
		perOpOverheadInstrs:  15_000,
	}, nil
}

// Net returns the loaded model.
func (s *Session) Net() *dnn.Net { return s.net }

// Precision returns the session's datapath.
func (s *Session) Precision() dnn.Precision { return s.prec }

// Cost is the predicted cycle cost of one inference on a given platform,
// split by resource. Computed without running anything — used for Table 3
// and for deadline-aware scheduling in the dynamic runtime.
type Cost struct {
	CPUCycles   uint64 // stream + dispatch + (if no accelerator) matmul cycles
	AccelCycles uint64 // Gemmini-busy cycles (0 without the accelerator)
}

// Total returns the end-to-end cycles of one inference.
func (c Cost) Total() uint64 { return c.CPUCycles + c.AccelCycles }

// int8Matmul reports whether an op runs on the quantized datapath: conv
// GEMMs only — the M==1 classifier heads stay FP32 (negligible compute,
// and quantizing the final logits would cost accuracy for nothing).
func (s *Session) int8Matmul(op dnn.OpDesc) bool {
	return s.prec == dnn.PrecisionInt8 && op.Kind == dnn.OpMatMul && op.M > 1
}

// quantGlueBytes is the stream traffic of the int8 mode's per-layer glue: a
// quantize pass over the GEMM's activation operand (int8 write; the fp32
// read is part of the already-charged im2col pass) and a dequantize pass
// over the int32 accumulator into fp32 output.
func quantGlueBytes(op dnn.OpDesc) uint64 {
	return uint64(op.M)*uint64(op.K) + uint64(op.M)*uint64(op.N)*8
}

// opBill is one op's full price: cycles plus the dynamic energy billed with
// each charge, split by engine domain (core/accel vs memory).
type opBill struct {
	cpu, accel         uint64 // cycles
	cpuPJ, accelPJ     uint64 // core-/accel-domain dynamic energy
	cpuMemPJ, accelMem uint64 // memory-domain energy riding each charge
}

// priceOp prices a single op — cycles and energy together, so the pricing
// points stay in lockstep; used identically by Predict, Run, and ChargePlan
// so the prediction and the replayed bill are exact.
func (s *Session) priceOp(op dnn.OpDesc, core soc.CoreParams, ep soc.EnergyParams, scale float64, hasGemmini bool) opBill {
	var b opBill
	b.cpu = soc.ScalarCycles(core, s.perOpOverheadInstrs)
	b.cpuPJ = soc.ScalarEnergyPJ(ep, s.perOpOverheadInstrs)
	switch op.Kind {
	case dnn.OpStream:
		bytes := uint64(float64(op.Bytes) * scale)
		b.cpu += soc.StreamCycles(core, bytes)
		b.cpuMemPJ += soc.StreamEnergyPJ(ep, bytes)
	case dnn.OpMatMul:
		macs := uint64(float64(op.MACs()) * scale)
		if s.int8Matmul(op) {
			glue := uint64(float64(quantGlueBytes(op)) * scale)
			b.cpu += soc.StreamCycles(core, glue)
			b.cpuMemPJ += soc.StreamEnergyPJ(ep, glue)
			if hasGemmini {
				b.accel = uint64(float64(s.gem.MatmulCyclesInt8(op.M, op.K, op.N)) * scale)
				b.accelPJ = soc.AccelMatmulEnergyPJInt8(ep, macs)
				b.accelMem = soc.DRAMEnergyPJ(ep, uint64(float64(s.gem.MatmulDMABytesInt8(op.M, op.K, op.N))*scale))
			} else {
				b.cpu += soc.CPUMatmulCyclesInt8(core, macs)
				b.cpuPJ += soc.CPUMatmulEnergyPJInt8(ep, macs)
			}
			return b
		}
		if hasGemmini {
			b.accel = uint64(float64(s.gem.MatmulCycles(op.M, op.K, op.N)) * scale)
			b.accelPJ = soc.AccelMatmulEnergyPJ(ep, macs)
			b.accelMem = soc.DRAMEnergyPJ(ep, uint64(float64(s.gem.MatmulDMABytes(op.M, op.K, op.N))*scale))
		} else {
			b.cpu += soc.CPUMatmulCycles(core, macs)
			b.cpuPJ += soc.CPUMatmulEnergyPJ(ep, macs)
		}
	}
	return b
}

// Predict prices one inference for a core/accelerator combination.
func (s *Session) Predict(core soc.CoreParams, params soc.Params, hasGemmini bool) Cost {
	var cost Cost
	cost.CPUCycles += soc.ScalarCycles(core, s.perRunOverheadInstrs)
	for _, op := range s.ops {
		b := s.priceOp(op, core, soc.EnergyParams{}, params.WorkloadScale, hasGemmini)
		cost.CPUCycles += b.cpu
		cost.AccelCycles += b.accel
	}
	return cost
}

// PredictEnergy prices one inference's dynamic energy (pJ) under an energy
// model, split like the cycle Cost: core+memory energy of the CPU-side
// charges vs accelerator MAC+DMA energy. Static power is the engine's
// business (a function of elapsed time, not of this inference).
func (s *Session) PredictEnergy(core soc.CoreParams, ep soc.EnergyParams, params soc.Params, hasGemmini bool) (cpuPJ, accelPJ uint64) {
	cpuPJ = soc.ScalarEnergyPJ(ep, s.perRunOverheadInstrs)
	for _, op := range s.ops {
		b := s.priceOp(op, core, ep, params.WorkloadScale, hasGemmini)
		cpuPJ += b.cpuPJ + b.cpuMemPJ
		accelPJ += b.accelPJ + b.accelMem
	}
	return cpuPJ, accelPJ
}

// Run executes one inference on the simulated SoC: the functional forward
// pass produces the real classifier outputs while the predicted cycle cost
// is charged to the engine op by op, so synchronization boundaries can land
// mid-inference exactly as they would in RTL simulation.
func (s *Session) Run(rt *soc.Runtime, input *tensor.Tensor) dnn.Output {
	out := s.Forward(rt, input)
	core := rt.Core()
	params := rt.Params()
	ep := rt.Energy()

	rt.ComputeEnergy(soc.ScalarCycles(core, s.perRunOverheadInstrs),
		soc.ScalarEnergyPJ(ep, s.perRunOverheadInstrs), 0)
	for _, op := range s.ops {
		b := s.priceOp(op, core, ep, params.WorkloadScale, rt.HasGemmini())
		rt.ComputeEnergy(b.cpu, b.cpuPJ, b.cpuMemPJ)
		if b.accel > 0 {
			rt.ComputeAccelEnergy(b.accel, b.accelPJ, b.accelMem)
		}
	}
	return out
}

// Forward computes just the functional forward pass — no cycle charges. It
// consumes input before returning, so callers may refill the tensor for the
// next call. rt is unused. Resumable controllers use Forward + ChargePlan so
// the charges can be billed one engine request at a time across snapshot
// boundaries.
func (s *Session) Forward(rt *soc.Runtime, input *tensor.Tensor) dnn.Output {
	return s.net.ForwardWSP(s.ws, input, s.prec)
}

// Charge is one entry of a session's cycle-and-energy bill.
type Charge struct {
	Cycles uint64
	Accel  bool
	// EnergyPJ is the dynamic energy for the charge's primary domain (core,
	// or accelerator when Accel); MemPJ is the memory-domain energy riding
	// the same charge (streams, DMA).
	EnergyPJ uint64
	MemPJ    uint64
}

// ChargePlan appends the inference's cycle-and-energy bill to dst, in
// exactly the order Run charges it: the per-run overhead, then per op the
// CPU charge followed by the accelerator charge when present. Replaying the
// plan through ComputeEnergy/ComputeAccelEnergy is cycle- and
// energy-identical to Run; because it is a flat list, a resumable controller
// can record an index into it and re-bill only the remainder after a
// restore.
func (s *Session) ChargePlan(rt *soc.Runtime, dst []Charge) []Charge {
	core := rt.Core()
	params := rt.Params()
	ep := rt.Energy()
	dst = append(dst, Charge{
		Cycles:   soc.ScalarCycles(core, s.perRunOverheadInstrs),
		EnergyPJ: soc.ScalarEnergyPJ(ep, s.perRunOverheadInstrs),
	})
	for _, op := range s.ops {
		b := s.priceOp(op, core, ep, params.WorkloadScale, rt.HasGemmini())
		dst = append(dst, Charge{Cycles: b.cpu, EnergyPJ: b.cpuPJ, MemPJ: b.cpuMemPJ})
		if b.accel > 0 {
			dst = append(dst, Charge{Cycles: b.accel, Accel: true, EnergyPJ: b.accelPJ, MemPJ: b.accelMem})
		}
	}
	return dst
}
