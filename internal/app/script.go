package app

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/soc"
)

// ScriptParams configures the scripted patrol controller.
type ScriptParams struct {
	WarmupSec     float64 // boot/settle time before the patrol starts
	PlannerInstrs uint64  // scalar instructions billed per control iteration
	PeriodSec     float64 // control-loop period; the iteration pads to it
}

// DefaultScriptParams models a lightweight waypoint planner: no DNN, just a
// few tens of thousands of scalar instructions per iteration, paced at a
// 50 Hz control rate.
func DefaultScriptParams() ScriptParams {
	return ScriptParams{WarmupSec: 0.5, PlannerInstrs: 50_000, PeriodSec: 0.02}
}

// ScriptedLoop flies a scenario patrol script as a resumable state machine:
// each iteration reads the depth sensor, bills the planner's scalar compute,
// picks the script leg for the current mission time, applies the depth-hold
// collision reflex, and sends the velocity command. It is the mission shape
// for scenario missions that exercise the platform without a DNN — the
// whole SoC pipeline (sync quanta, RTL cycles, energy ledger, fingerprints)
// runs identically, just with scalar compute in place of inference.
type ScriptedLoop struct {
	script []scenario.ScriptLeg
	params ScriptParams
	log    *Log

	pc     uint8
	req    uint64
	depthM float64
	cmd    packet.Cmd
	pad    uint64 // remaining period cycles, set in pcCharge, billed in pcPad
}

// pcPad bills the period padding computed by pcCharge. It lives outside the
// shared iota block (loop.go) — numbering from 100 keeps it disjoint.
const pcPad uint8 = 100

// NewScriptedLoop builds the resumable scripted controller.
func NewScriptedLoop(script []scenario.ScriptLeg, p ScriptParams, log *Log) *ScriptedLoop {
	sl := &ScriptedLoop{script: script, params: p, log: log, pc: pcWarmSend}
	if p.WarmupSec <= 0 {
		sl.pc = pcReqTime
	}
	return sl
}

// Run implements soc.StateProgram (and doubles as a soc.Program).
func (sl *ScriptedLoop) Run(rt *soc.Runtime) error {
	clock := rt.Params().ClockHz
	for {
		switch sl.pc {
		case pcWarmSend:
			rt.Send(packet.Cmd{}.Marshal())
			sl.pc = pcWarmCompute
		case pcWarmCompute:
			rt.Compute(rt.Params().SecondsToCycles(sl.params.WarmupSec))
			sl.pc = pcReqTime
		case pcReqTime:
			sl.req = rt.Now()
			sl.pc = pcSendDepthReq
		case pcSendDepthReq:
			rt.Send(packet.Packet{Type: packet.DepthReq})
			sl.pc = pcRecvDepth
		case pcRecvDepth:
			p := rt.Recv()
			if p.Type != packet.DepthData {
				continue // discard stragglers; PC stays put
			}
			dp, err := packet.UnmarshalDepth(p)
			if err != nil {
				return fmt.Errorf("app: %w", err)
			}
			sl.depthM = dp.Meters
			sl.pc = pcOverhead
		case pcOverhead:
			rt.Compute(soc.ScalarCycles(rt.Core(), sl.params.PlannerInstrs))
			sl.pc = pcSendCmd
		case pcSendCmd:
			// The leg is a pure function of the request timestamp, so a
			// restored mission picks the same leg without extra state.
			elapsed := float64(sl.req)/clock - sl.params.WarmupSec
			sl.cmd = scriptCommand(sl.script, elapsed, sl.depthM)
			rt.Send(sl.cmd.Marshal())
			sl.pc = pcRespTime
		case pcRespTime:
			resp := rt.Now()
			if sl.log != nil {
				sl.log.Add(InferenceRecord{
					Model:       "script",
					ReqCycle:    sl.req,
					RespCycle:   resp,
					LatencySec:  float64(resp-sl.req) / clock,
					Cmd:         sl.cmd,
					DepthMeters: sl.depthM,
				})
			}
			sl.pc = pcCharge
		case pcCharge:
			// Work out the period padding (50 Hz planner, not a busy loop
			// saturating the bridge). The pad amount enters the resume
			// state before pcPad issues the charge, so a snapshot landing
			// mid-pad re-issues the identical request.
			used := rt.Now() - sl.req
			sl.pad = 0
			if period := rt.Params().SecondsToCycles(sl.params.PeriodSec); period > used {
				sl.pad = period - used
			}
			sl.pc = pcPad
		case pcPad:
			if sl.pad > 0 {
				rt.Compute(sl.pad)
			}
			sl.pc = pcReqTime
		default:
			return fmt.Errorf("app: scripted loop at invalid pc %d", sl.pc)
		}
	}
}

// scriptCommand resolves the velocity command for patrol time t with the
// depth-hold reflex applied.
func scriptCommand(script []scenario.ScriptLeg, t, depthM float64) packet.Cmd {
	leg, ok := scenario.LegAt(script, t)
	if !ok {
		return packet.Cmd{} // empty script: hover
	}
	cmd := packet.Cmd{VForward: leg.VForward, VLateral: leg.VLateral, YawRate: leg.YawRate}
	if leg.HoldDepthM > 0 && depthM < leg.HoldDepthM {
		cmd.VForward = 0
	}
	return cmd
}

// scriptBlob is the gob image of a ScriptedLoop's resume state. The script
// itself is configuration, rebuilt from the scenario spec on restore.
type scriptBlob struct {
	PC      uint8
	Req     uint64
	DepthM  float64
	Cmd     packet.Cmd
	Pad     uint64
	Records []InferenceRecord
}

// SnapshotState implements soc.StateProgram.
func (sl *ScriptedLoop) SnapshotState() ([]byte, error) {
	b := scriptBlob{PC: sl.pc, Req: sl.req, DepthM: sl.depthM, Cmd: sl.cmd, Pad: sl.pad}
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
func (sl *ScriptedLoop) RestoreState(data []byte) error {
	var b scriptBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&b); err != nil {
		return err
	}
	sl.pc = b.PC
	sl.req = b.Req
	sl.depthM = b.DepthM
	sl.cmd = b.Cmd
	sl.pad = b.Pad
	if sl.log != nil {
		sl.log.Restore(b.Records)
	}
	return nil
}
