// Resumable controllers. A Go coroutine stack cannot be serialized, so
// everything a controller carries across Runtime interactions — the program
// counter, the in-progress inference record, the forward-pass output, the
// index into the cycle bill — lives in struct fields captured by
// SnapshotState. ControlLoop (here) and ScriptedLoop (script.go) are the
// production controllers, run through soc.NewStateMachine, so ordinary
// missions and snapshot/restore missions execute identical request
// sequences.
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
// request is in flight names that request. pcSendDepthReq, pcRecvDepth and
// pcOverhead read the depth sensor and bill the per-iteration bookkeeping:
// a ControlLoop passes through them only when it has a fallback network,
// and a ScriptedLoop on every iteration.
const (
	pcWarmSend uint8 = iota
	pcWarmCompute
	pcReqTime
	pcSendDepthReq
	pcSendCamReq
	pcRecvDepth
	pcOverhead
	pcRecvCam
	pcCharge
	pcSendCmd
	pcRespTime
)

// ControlLoop is the DNN trail-navigation controller as a resumable state
// machine: the static controller of §4.2.2 (NewStaticLoop), or, given a
// fallback network, the deadline-aware dynamic runtime of §5.3
// (NewDynamicLoop). Run it with soc.NewStateMachine.
type ControlLoop struct {
	big, small *ort.Session // small == nil: the static controller
	ctrl       ControlParams
	smallCtrl  ControlParams
	dyn        DynamicParams
	log        *Log

	pc        uint8
	chargeIdx int
	plan      []ort.Charge // rebuilt deterministically; only the index persists
	req       uint64
	depthM    float64
	useSmall  bool
	out       dnn.Output
	cmd       packet.Cmd
	// frame is the reusable input tensor (not resume state — it is refilled
	// from the packet before every forward pass).
	frame *tensor.Tensor
}

// StaticLoop is the static controller's type under its earlier name. It is
// kept only because perfbench/tcp.go declares *app.StaticLoop and the
// benchmark module does not change with this package; it goes with the next
// benchmark change.
type StaticLoop = ControlLoop

// NewStaticLoop builds the static controller: request an image, run the
// DNN, send velocity targets, repeat.
func NewStaticLoop(sess *ort.Session, ctrl ControlParams, log *Log) *ControlLoop {
	cl := &ControlLoop{big: sess, ctrl: ctrl, log: log, pc: pcWarmSend}
	if ctrl.WarmupSec <= 0 {
		cl.pc = pcReqTime
	}
	return cl
}

// NewDynamicLoop builds the dynamic runtime: each iteration also reads the
// forward depth sensor, derives the collision deadline, and runs the
// high-accuracy network big when the deadline allows or the low-latency
// network small when a collision is imminent.
func NewDynamicLoop(big, small *ort.Session, ctrl ControlParams, dyn DynamicParams, log *Log) *ControlLoop {
	cl := NewStaticLoop(big, ctrl, log)
	cl.small, cl.dyn = small, dyn
	cl.smallCtrl = ctrl
	// The paper compensates the small network's low confidence with an
	// argmax policy (§5.3); in this substrate bang-bang corrections at
	// mission velocity destabilize the quadrotor (see ablation-policy), so
	// the fallback uses strongly sharpened probability scaling instead —
	// same intent (faster, larger corrections), stable dynamics.
	cl.smallCtrl.Temperature = TemperatureFor(small.Net().Name) * 0.45
	return cl
}

// Run implements soc.StateProgram.
func (cl *ControlLoop) Run(rt *soc.Runtime) error {
	clock := rt.Params().ClockHz
	dynamic := cl.small != nil
	for {
		switch cl.pc {
		case pcWarmSend:
			rt.Send(packet.Cmd{}.Marshal())
			cl.pc = pcWarmCompute
		case pcWarmCompute:
			rt.Compute(rt.Params().SecondsToCycles(cl.ctrl.WarmupSec))
			cl.pc = pcReqTime
		case pcReqTime:
			cl.req = rt.Now()
			cl.pc = pcSendCamReq
			if dynamic {
				cl.pc = pcSendDepthReq
			}
		case pcSendDepthReq:
			// Issue the depth and camera requests back to back so both
			// answers arrive at the same synchronization boundary; a
			// sequential request/response pair would add a full quantum
			// of staleness per control iteration.
			rt.Send(packet.Packet{Type: packet.DepthReq})
			cl.pc = pcSendCamReq
		case pcSendCamReq:
			rt.Send(packet.Packet{Type: packet.CamReq})
			cl.pc = pcRecvCam
			if dynamic {
				cl.pc = pcRecvDepth
			}
		case pcRecvDepth:
			p := rt.Recv()
			if p.Type != packet.DepthData {
				continue // discard stragglers; PC stays put
			}
			depthPkt, err := packet.UnmarshalDepth(p)
			if err != nil {
				return fmt.Errorf("app: %w", err)
			}
			cl.depthM = depthPkt.Meters
			cl.pc = pcOverhead
		case pcOverhead:
			// Two resident sessions cost bookkeeping every iteration.
			rt.Compute(soc.ScalarCycles(rt.Core(), cl.dyn.SessionOverheadInstrs))
			cl.pc = pcRecvCam
		case pcRecvCam:
			p := rt.Recv()
			if p.Type != packet.CamData {
				continue
			}
			if dynamic {
				tCollision := math.Inf(1)
				if cl.ctrl.VForward > 0 {
					tCollision = cl.depthM / cl.ctrl.VForward
				}
				cl.useSmall = tCollision < cl.dyn.DeadlineSec
			}
			input, err := decodeFrameInto(p, cl.frame, cl.session().Net())
			if err != nil {
				return fmt.Errorf("app: %w", err)
			}
			cl.frame = input
			// The forward pass runs host-side between interactions; its
			// output enters the resume state before the first charge is
			// issued, so a snapshot mid-bill never re-runs it.
			cl.out = cl.session().Forward(rt, input)
			cl.chargeIdx = 0
			cl.plan = cl.plan[:0]
			cl.pc = pcCharge
		case pcCharge:
			if len(cl.plan) == 0 {
				// Rebuilt on demand (it is pure configuration), which also
				// covers resuming mid-bill after a restore.
				cl.plan = cl.session().ChargePlan(rt, cl.plan[:0])
			}
			if cl.chargeIdx >= len(cl.plan) {
				if cl.useSmall {
					cl.cmd = ControlFromOutput(cl.out, cl.smallCtrl)
				} else {
					cl.cmd = ControlFromOutput(cl.out, cl.ctrl)
				}
				cl.pc = pcSendCmd
				continue
			}
			c := cl.plan[cl.chargeIdx]
			if c.Cycles == 0 {
				cl.chargeIdx++ // zero charges issue no request
				continue
			}
			if c.Accel {
				rt.ComputeAccelEnergy(c.Cycles, c.EnergyPJ, c.MemPJ)
			} else {
				rt.ComputeEnergy(c.Cycles, c.EnergyPJ, c.MemPJ)
			}
			cl.chargeIdx++
		case pcSendCmd:
			rt.Send(cl.cmd.Marshal())
			cl.pc = pcRespTime
		case pcRespTime:
			resp := rt.Now()
			if cl.log != nil {
				cl.log.Add(InferenceRecord{
					Model:        cl.session().Net().Name,
					ReqCycle:     cl.req,
					RespCycle:    resp,
					LatencySec:   float64(resp-cl.req) / clock,
					Output:       cl.out,
					Cmd:          cl.cmd,
					DepthMeters:  cl.depthM,
					UsedFallback: cl.useSmall,
				})
			}
			cl.pc = pcReqTime
		default:
			return fmt.Errorf("app: control loop at invalid pc %d", cl.pc)
		}
	}
}

// session returns the network the current iteration selected.
func (cl *ControlLoop) session() *ort.Session {
	if cl.useSmall {
		return cl.small
	}
	return cl.big
}

// loopBlob is the gob image of a ControlLoop's resume state. A static
// loop's image leaves DepthM and UseSmall zero; the field names are those
// of the static and dynamic images written before the two loops merged, so
// those images decode too. The inference log rides along so a restored
// mission's log matches an uninterrupted one.
type loopBlob struct {
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
func (cl *ControlLoop) SnapshotState() ([]byte, error) {
	b := loopBlob{
		PC: cl.pc, ChargeIdx: cl.chargeIdx, Req: cl.req,
		DepthM: cl.depthM, UseSmall: cl.useSmall, Out: cl.out, Cmd: cl.cmd,
	}
	if cl.log != nil {
		b.Records = cl.log.Records()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreState implements soc.StateProgram. A loop without a fallback
// network rejects a blob that selects one (Run would dereference the
// missing session) or that parks in a depth state it never enters.
func (cl *ControlLoop) RestoreState(data []byte) error {
	var b loopBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&b); err != nil {
		return err
	}
	if b.ChargeIdx < 0 {
		return fmt.Errorf("app: control loop blob has charge index %d", b.ChargeIdx)
	}
	if cl.small == nil && (b.UseSmall || b.PC == pcSendDepthReq || b.PC == pcRecvDepth || b.PC == pcOverhead) {
		return fmt.Errorf("app: control loop blob (pc %d, fallback %v) needs a fallback network the loop does not have", b.PC, b.UseSmall)
	}
	cl.pc = b.PC
	cl.chargeIdx = b.ChargeIdx
	cl.req = b.Req
	cl.depthM = b.DepthM
	cl.useSmall = b.UseSmall
	cl.out = b.Out
	cl.cmd = b.Cmd
	cl.plan = cl.plan[:0]
	if cl.log != nil {
		cl.log.Restore(b.Records)
	}
	return nil
}
