// Resumable controllers: the StaticController/DynamicController loops
// rewritten as explicit state machines implementing soc.StateProgram. A Go
// coroutine stack cannot be serialized, so everything the loop carries
// across Runtime interactions — the program counter, the in-progress
// inference record, the forward-pass output, the index into the cycle bill —
// lives in struct fields captured by SnapshotState. The machines are the
// production controllers, not a parallel implementation: StaticController
// and DynamicController are thin wrappers over them, so ordinary missions
// and snapshot/restore missions execute identical request sequences.
package app

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/dnn"
	"repro/internal/ort"
	"repro/internal/packet"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// Program counters. The PC names the Runtime interaction currently being
// issued (or parked in); it advances only after the interaction completes,
// which is exactly the soc.StateProgram contract: the state observed while a
// request is in flight names that request.
const (
	pcWarmSend uint8 = iota
	pcWarmCompute
	pcReqTime
	pcSendDepthReq // dynamic only
	pcSendCamReq
	pcRecvDepth // dynamic only
	pcOverhead  // dynamic only
	pcRecvCam
	pcCharge
	pcSendCmd
	pcRespTime
)

// StaticLoop is the static trail-navigation controller as a resumable state
// machine. Build with NewStaticLoop; run via soc.NewStateMachine (or any
// Program context — Run is a plain soc.Program too).
type StaticLoop struct {
	sess *ort.Session
	ctrl ControlParams
	log  *Log

	pc        uint8
	chargeIdx int
	plan      []ort.Charge // rebuilt deterministically; only the index persists
	req       uint64
	out       dnn.Output
	cmd       packet.Cmd
	// frame is the reusable input tensor (not resume state — it is refilled
	// from the packet before every forward pass).
	frame *tensor.Tensor
}

// NewStaticLoop builds the resumable static controller.
func NewStaticLoop(sess *ort.Session, ctrl ControlParams, log *Log) *StaticLoop {
	sl := &StaticLoop{sess: sess, ctrl: ctrl, log: log, pc: pcWarmSend}
	if ctrl.WarmupSec <= 0 {
		sl.pc = pcReqTime
	}
	return sl
}

// Run implements soc.StateProgram (and doubles as a soc.Program).
func (sl *StaticLoop) Run(rt *soc.Runtime) error {
	clock := rt.Params().ClockHz
	for {
		switch sl.pc {
		case pcWarmSend:
			rt.Send(packet.Cmd{}.Marshal())
			sl.pc = pcWarmCompute
		case pcWarmCompute:
			rt.Compute(rt.Params().SecondsToCycles(sl.ctrl.WarmupSec))
			sl.pc = pcReqTime
		case pcReqTime:
			sl.req = rt.Now()
			sl.pc = pcSendCamReq
		case pcSendCamReq:
			rt.Send(packet.Packet{Type: packet.CamReq})
			sl.pc = pcRecvCam
		case pcRecvCam:
			p := rt.Recv()
			if p.Type != packet.CamData {
				continue // discard stragglers; PC stays put
			}
			input, err := decodeFrameInto(p, sl.frame, sl.sess.Net())
			if err != nil {
				return fmt.Errorf("app: %w", err)
			}
			sl.frame = input
			// The forward pass runs host-side between interactions; its
			// output enters the resume state before the first charge is
			// issued, so a snapshot mid-bill never re-runs it.
			sl.out = sl.sess.Forward(rt, input)
			sl.chargeIdx = 0
			sl.plan = sl.plan[:0]
			sl.pc = pcCharge
		case pcCharge:
			if len(sl.plan) == 0 {
				// Rebuilt on demand (it is pure configuration), which also
				// covers resuming mid-bill after a restore.
				sl.plan = sl.sess.ChargePlan(rt, sl.plan[:0])
			}
			if sl.chargeIdx >= len(sl.plan) {
				sl.cmd = ControlFromOutput(sl.out, sl.ctrl)
				sl.pc = pcSendCmd
				continue
			}
			c := sl.plan[sl.chargeIdx]
			if c.Cycles == 0 {
				sl.chargeIdx++ // zero charges issue no request
				continue
			}
			if c.Accel {
				rt.ComputeAccelEnergy(c.Cycles, c.EnergyPJ, c.MemPJ)
			} else {
				rt.ComputeEnergy(c.Cycles, c.EnergyPJ, c.MemPJ)
			}
			sl.chargeIdx++
		case pcSendCmd:
			rt.Send(sl.cmd.Marshal())
			sl.pc = pcRespTime
		case pcRespTime:
			resp := rt.Now()
			if sl.log != nil {
				sl.log.Add(InferenceRecord{
					Model:      sl.sess.Net().Name,
					ReqCycle:   sl.req,
					RespCycle:  resp,
					LatencySec: float64(resp-sl.req) / clock,
					Output:     sl.out,
					Cmd:        sl.cmd,
				})
			}
			sl.pc = pcReqTime
		default:
			return fmt.Errorf("app: static loop at invalid pc %d", sl.pc)
		}
	}
}

// staticBlob is the gob image of a StaticLoop's resume state. The inference
// log rides along so a restored mission's log matches an uninterrupted one.
type staticBlob struct {
	PC        uint8
	ChargeIdx int
	Req       uint64
	Out       dnn.Output
	Cmd       packet.Cmd
	Records   []InferenceRecord
}

// SnapshotState implements soc.StateProgram.
func (sl *StaticLoop) SnapshotState() ([]byte, error) {
	b := staticBlob{PC: sl.pc, ChargeIdx: sl.chargeIdx, Req: sl.req, Out: sl.out, Cmd: sl.cmd}
	if sl.log != nil {
		b.Records = sl.log.Records()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreState implements soc.StateProgram.
func (sl *StaticLoop) RestoreState(data []byte) error {
	var b staticBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&b); err != nil {
		return err
	}
	if b.ChargeIdx < 0 {
		return fmt.Errorf("app: static loop blob has charge index %d", b.ChargeIdx)
	}
	sl.pc = b.PC
	sl.chargeIdx = b.ChargeIdx
	sl.req = b.Req
	sl.out = b.Out
	sl.cmd = b.Cmd
	sl.plan = sl.plan[:0]
	if sl.log != nil {
		sl.log.Restore(b.Records)
	}
	return nil
}

// DynamicLoop is the deadline-aware dynamic runtime as a resumable state
// machine; see DynamicController for the policy description.
type DynamicLoop struct {
	big, small *ort.Session
	ctrl       ControlParams
	smallCtrl  ControlParams
	dyn        DynamicParams
	log        *Log

	pc        uint8
	chargeIdx int
	plan      []ort.Charge
	req       uint64
	depthM    float64
	useSmall  bool
	out       dnn.Output
	cmd       packet.Cmd
	frame     *tensor.Tensor // reusable input tensor; see StaticLoop.frame
}

// NewDynamicLoop builds the resumable dynamic-runtime controller.
func NewDynamicLoop(big, small *ort.Session, ctrl ControlParams, dyn DynamicParams, log *Log) *DynamicLoop {
	smallCtrl := ctrl
	// The paper compensates the small network's low confidence with an
	// argmax policy (§5.3); in this substrate bang-bang corrections at
	// mission velocity destabilize the quadrotor (see ablation-policy), so
	// the fallback uses strongly sharpened probability scaling instead —
	// same intent (faster, larger corrections), stable dynamics.
	smallCtrl.Temperature = TemperatureFor(small.Net().Name) * 0.45
	dl := &DynamicLoop{big: big, small: small, ctrl: ctrl, smallCtrl: smallCtrl, dyn: dyn, log: log, pc: pcWarmSend}
	if ctrl.WarmupSec <= 0 {
		dl.pc = pcReqTime
	}
	return dl
}

// Run implements soc.StateProgram (and doubles as a soc.Program).
func (dl *DynamicLoop) Run(rt *soc.Runtime) error {
	clock := rt.Params().ClockHz
	for {
		switch dl.pc {
		case pcWarmSend:
			rt.Send(packet.Cmd{}.Marshal())
			dl.pc = pcWarmCompute
		case pcWarmCompute:
			rt.Compute(rt.Params().SecondsToCycles(dl.ctrl.WarmupSec))
			dl.pc = pcReqTime
		case pcReqTime:
			dl.req = rt.Now()
			dl.pc = pcSendDepthReq
		case pcSendDepthReq:
			// Issue the depth and camera requests back to back so both
			// answers arrive at the same synchronization boundary; a
			// sequential request/response pair would add a full quantum
			// of staleness per control iteration.
			rt.Send(packet.Packet{Type: packet.DepthReq})
			dl.pc = pcSendCamReq
		case pcSendCamReq:
			rt.Send(packet.Packet{Type: packet.CamReq})
			dl.pc = pcRecvDepth
		case pcRecvDepth:
			p := rt.Recv()
			if p.Type != packet.DepthData {
				continue
			}
			depthPkt, err := packet.UnmarshalDepth(p)
			if err != nil {
				return fmt.Errorf("app: %w", err)
			}
			dl.depthM = depthPkt.Meters
			dl.pc = pcOverhead
		case pcOverhead:
			// Two resident sessions cost bookkeeping every iteration.
			rt.Compute(soc.ScalarCycles(rt.Core(), dl.dyn.SessionOverheadInstrs))
			dl.pc = pcRecvCam
		case pcRecvCam:
			p := rt.Recv()
			if p.Type != packet.CamData {
				continue
			}
			tCollision := math.Inf(1)
			if dl.ctrl.VForward > 0 {
				tCollision = dl.depthM / dl.ctrl.VForward
			}
			dl.useSmall = tCollision < dl.dyn.DeadlineSec
			input, err := decodeFrameInto(p, dl.frame, dl.session().Net())
			if err != nil {
				return fmt.Errorf("app: %w", err)
			}
			dl.frame = input
			dl.out = dl.session().Forward(rt, input)
			dl.chargeIdx = 0
			dl.plan = dl.plan[:0]
			dl.pc = pcCharge
		case pcCharge:
			if len(dl.plan) == 0 {
				dl.plan = dl.session().ChargePlan(rt, dl.plan[:0])
			}
			if dl.chargeIdx >= len(dl.plan) {
				if dl.useSmall {
					dl.cmd = ControlFromOutput(dl.out, dl.smallCtrl)
				} else {
					dl.cmd = ControlFromOutput(dl.out, dl.ctrl)
				}
				dl.pc = pcSendCmd
				continue
			}
			c := dl.plan[dl.chargeIdx]
			if c.Cycles == 0 {
				dl.chargeIdx++
				continue
			}
			if c.Accel {
				rt.ComputeAccelEnergy(c.Cycles, c.EnergyPJ, c.MemPJ)
			} else {
				rt.ComputeEnergy(c.Cycles, c.EnergyPJ, c.MemPJ)
			}
			dl.chargeIdx++
		case pcSendCmd:
			rt.Send(dl.cmd.Marshal())
			dl.pc = pcRespTime
		case pcRespTime:
			resp := rt.Now()
			if dl.log != nil {
				dl.log.Add(InferenceRecord{
					Model:        dl.session().Net().Name,
					ReqCycle:     dl.req,
					RespCycle:    resp,
					LatencySec:   float64(resp-dl.req) / clock,
					Output:       dl.out,
					Cmd:          dl.cmd,
					DepthMeters:  dl.depthM,
					UsedFallback: dl.useSmall,
				})
			}
			dl.pc = pcReqTime
		default:
			return fmt.Errorf("app: dynamic loop at invalid pc %d", dl.pc)
		}
	}
}

// session returns the network the current iteration selected.
func (dl *DynamicLoop) session() *ort.Session {
	if dl.useSmall {
		return dl.small
	}
	return dl.big
}

// dynBlob is the gob image of a DynamicLoop's resume state.
type dynBlob struct {
	PC        uint8
	ChargeIdx int
	Req       uint64
	DepthM    float64
	UseSmall  bool
	Out       dnn.Output
	Cmd       packet.Cmd
	Records   []InferenceRecord
}

// SnapshotState implements soc.StateProgram.
func (dl *DynamicLoop) SnapshotState() ([]byte, error) {
	b := dynBlob{
		PC: dl.pc, ChargeIdx: dl.chargeIdx, Req: dl.req,
		DepthM: dl.depthM, UseSmall: dl.useSmall, Out: dl.out, Cmd: dl.cmd,
	}
	if dl.log != nil {
		b.Records = dl.log.Records()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreState implements soc.StateProgram.
func (dl *DynamicLoop) RestoreState(data []byte) error {
	var b dynBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&b); err != nil {
		return err
	}
	if b.ChargeIdx < 0 {
		return fmt.Errorf("app: dynamic loop blob has charge index %d", b.ChargeIdx)
	}
	dl.pc = b.PC
	dl.chargeIdx = b.ChargeIdx
	dl.req = b.Req
	dl.depthM = b.DepthM
	dl.useSmall = b.UseSmall
	dl.out = b.Out
	dl.cmd = b.Cmd
	dl.plan = dl.plan[:0]
	if dl.log != nil {
		dl.log.Restore(b.Records)
	}
	return nil
}
