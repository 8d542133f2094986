// Package app contains the companion-computer applications deployed on the
// simulated SoC: the DNN trail-navigation control loop (ControlLoop), static
// (§4.2.2) or with a fallback network chosen by deadline (the dynamic
// runtime, §5.3); the scripted patrol controller of scenario missions
// (ScriptedLoop); and the classical RV64IM kernel flow (§3.3).
//
// Programs see only the soc.Runtime surface — bridge I/O and compute — and
// communicate exclusively through RoSÉ data packets, exactly like the C++
// controllers in the paper's artifact (simulation abstraction, §3.4.2).
package app

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dnn"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/soc"
	"repro/internal/tensor"
)

// ControlParams maps DNN outputs to flight-controller targets via
// Equation 2: v_l = β_l(y_right − y_left), ω = β_ω(y_right − y_left), in
// this repo's +Y-left/+yaw-CCW frame (the paper's NED form is the mirror
// image; see dnn class docs).
type ControlParams struct {
	VForward float64 // mission forward-velocity target (m/s)
	BetaLat  float64 // β_l, lateral gain (m/s per unit probability margin)
	BetaAng  float64 // β_ω, angular gain (rad/s per unit probability margin)
	// Argmax switches from probability-scaled control to full-magnitude
	// corrections from the argmax class (§5.2's compensation policy).
	Argmax bool
	// Temperature rescales class probabilities (p ∝ p^(1/T)) to model the
	// confidence level of the deployed network: the paper observes that
	// high-capacity DNNs classify with higher confidence, producing sharper
	// trajectory changes (§5.2). Use TemperatureFor to pick per variant.
	Temperature float64
	// WarmupSec holds the controller at zero velocity targets after boot
	// while the flight controller completes take-off and climbs to the
	// altitude-hold target; ground-level camera views are outside the
	// training distribution.
	WarmupSec float64
}

// DefaultControlParams returns gains tuned for the evaluation environments.
func DefaultControlParams(vForward float64) ControlParams {
	return ControlParams{
		VForward:    vForward,
		BetaLat:     1.7,
		BetaAng:     2.4,
		Temperature: 1,
		WarmupSec:   1.5,
	}
}

// TemperatureFor models the confidence scaling of each variant: deeper,
// higher-capacity networks produce sharper softmax outputs.
func TemperatureFor(name string) float64 {
	switch name {
	case "ResNet6":
		return 1.7
	case "ResNet11":
		return 1.3
	case "ResNet14":
		return 1.0
	case "ResNet18":
		return 0.8
	case "ResNet34":
		return 0.6
	}
	return 1.0
}

// sharpen applies temperature scaling to a probability triple.
func sharpen(p [3]float32, temp float64) [3]float32 {
	if temp == 1 || temp <= 0 {
		return p
	}
	var out [3]float32
	var sum float64
	for i, v := range p {
		s := math.Pow(float64(v)+1e-9, 1/temp)
		out[i] = float32(s)
		sum += s
	}
	for i := range out {
		out[i] = float32(float64(out[i]) / sum)
	}
	return out
}

// ControlFromOutput implements Equation 2 on one inference result.
func ControlFromOutput(out dnn.Output, p ControlParams) packet.Cmd {
	lat := sharpen(out.Lateral, p.Temperature)
	ang := sharpen(out.Angular, p.Temperature)
	var vl, w float64
	if p.Argmax {
		// Full-magnitude correction from the winning class.
		switch tensor.Argmax(lat[:]) {
		case dnn.ClassRight:
			vl = p.BetaLat
		case dnn.ClassLeft:
			vl = -p.BetaLat
		}
		switch tensor.Argmax(ang[:]) {
		case dnn.ClassRight:
			w = p.BetaAng
		case dnn.ClassLeft:
			w = -p.BetaAng
		}
	} else {
		vl = p.BetaLat * float64(lat[dnn.ClassRight]-lat[dnn.ClassLeft])
		w = p.BetaAng * float64(ang[dnn.ClassRight]-ang[dnn.ClassLeft])
	}
	return packet.Cmd{VForward: p.VForward, VLateral: vl, YawRate: w}
}

// InferenceRecord logs one control-loop iteration for analysis (the CSV
// rows the paper's synchronizer emits).
type InferenceRecord struct {
	Model        string
	ReqCycle     uint64 // cycle the image request was issued
	RespCycle    uint64 // cycle the command was sent
	LatencySec   float64
	Output       dnn.Output
	Cmd          packet.Cmd
	DepthMeters  float64 // last depth reading (0 from a controller that reads none)
	UsedFallback bool    // dynamic runtime chose the small network
}

// Log collects inference records across the simulation; safe for the
// program goroutine to append while the host reads after completion.
type Log struct {
	mu      sync.Mutex
	records []InferenceRecord

	// Obs mirrors each record into the live metrics registry (nil =
	// disabled). Set before the simulation starts.
	Obs *obs.AppObs
}

// Add appends a record.
func (l *Log) Add(r InferenceRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.records = append(l.records, r)
	if l.Obs != nil {
		l.Obs.Inferences.Inc()
		if r.UsedFallback {
			l.Obs.Fallbacks.Inc()
		}
		l.Obs.Latency.Observe(time.Duration(r.LatencySec * float64(time.Second)))
	}
}

// Records returns a copy of the records so far.
func (l *Log) Records() []InferenceRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]InferenceRecord, len(l.records))
	copy(out, l.records)
	return out
}

// Restore replaces the log contents with a snapshot's record prefix, so a
// restored mission's log continues exactly where the captured one stood.
// Obs counters are not replayed — they are process-level metrics, not run
// state.
func (l *Log) Restore(recs []InferenceRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.records = append(l.records[:0], recs...)
}

// MeanLatency returns the mean request→command latency in seconds.
func (l *Log) MeanLatency() float64 {
	recs := l.Records()
	if len(recs) == 0 {
		return 0
	}
	var s float64
	for _, r := range recs {
		s += r.LatencySec
	}
	return s / float64(len(recs))
}

// warmup idles through take-off: zero targets, then wait.
func warmup(rt *soc.Runtime, ctrl ControlParams) {
	if ctrl.WarmupSec <= 0 {
		return
	}
	rt.Send(packet.Cmd{}.Marshal())
	rt.Compute(rt.Params().SecondsToCycles(ctrl.WarmupSec))
}

// recvOfType blocks until a data packet of the wanted type arrives,
// discarding stragglers of other types.
func recvOfType(rt *soc.Runtime, want packet.Type) packet.Packet {
	for {
		p := rt.Recv()
		if p.Type == want {
			return p
		}
	}
}

// decodeFrameInto converts a CAM_DATA packet into the input tensor of net.
// When scratch matches the frame's element count it is refilled in place
// (zero allocation on the steady-state control loop); otherwise, or when
// scratch is nil, a fresh tensor is allocated. A frame narrower or shorter
// than the network's input is rejected: the backbone's pooling grid would
// not fit it, while any larger frame shrinks to at least what the input
// does.
func decodeFrameInto(p packet.Packet, scratch *tensor.Tensor, net *dnn.Net) (*tensor.Tensor, error) {
	frame, err := packet.UnmarshalCamFrame(p)
	if err != nil {
		return nil, err
	}
	if frame.W < net.InW || frame.H < net.InH {
		return nil, fmt.Errorf("camera frame %dx%d is smaller than %s's %dx%d input",
			frame.W, frame.H, net.Name, net.InW, net.InH)
	}
	t := scratch
	if t == nil || len(t.Data) != frame.H*frame.W {
		t = tensor.New(1, frame.H, frame.W)
	} else {
		t.Shape[0], t.Shape[1], t.Shape[2] = 1, frame.H, frame.W
	}
	for i, b := range frame.Pix {
		t.Data[i] = float32(b)/255 - 0.5
	}
	return t, nil
}

// DynamicParams configures the deadline-aware runtime of §5.3.
type DynamicParams struct {
	// DeadlineSec: when the estimated time-to-collision (depth / forward
	// velocity, Equation 3) drops below this, the runtime switches to the
	// low-latency network, with the sharpened control of NewDynamicLoop.
	DeadlineSec float64
	// SessionOverheadInstrs models the extra bookkeeping of hosting two
	// ONNX Runtime sessions (the paper observes ~15% fewer inferences).
	SessionOverheadInstrs uint64
}

// DefaultDynamicParams returns the evaluation configuration.
func DefaultDynamicParams() DynamicParams {
	return DynamicParams{DeadlineSec: 0.55, SessionOverheadInstrs: 3_000_000}
}
