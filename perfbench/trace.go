package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/packet"
	"repro/internal/render"
	"repro/internal/sensor"
	"repro/internal/soc"
)

// op names a traced call: a layer's public function, as the benchmark calls
// it or as the synchronizer calls it through a wrapper.
type op uint8

const (
	opQuantum op = iota
	opMission
	opStepFrames
	opTelemetry
	opIMU
	opDepth
	opSetVelocity
	opFetchSensors
	opReset
	opFrame
	opRTLStep
	opPush
	opPull
	opForward
	opTrain
	opMap
	opCapture
	opEncode
	opDecode
	opRestoreEnv
	opRestoreSoC
	opRestoreCore
	numOps
)

var opNames = [numOps]string{
	opQuantum:      "core.StepQuanta(1)",
	opMission:      "mission",
	opStepFrames:   "env.StepFrames",
	opTelemetry:    "env.Telemetry",
	opIMU:          "env.GetIMU",
	opDepth:        "env.GetDepth",
	opSetVelocity:  "env.SetVelocity",
	opFetchSensors: "env.FetchSensors",
	opReset:        "env.Reset",
	opFrame:        "render.frame",
	opRTLStep:      "soc.Step",
	opPush:         "bridge.Push",
	opPull:         "bridge.Pull",
	opForward:      "dnn.forward(replay)",
	opTrain:        "dnn.Trained",
	opMap:          "world.ByName",
	opCapture:      "snapshot.Capture",
	opEncode:       "snapshot.Encode",
	opDecode:       "snapshot.Decode",
	opRestoreEnv:   "env.Sim.RestoreState",
	opRestoreSoC:   "soc.RestoreMachine",
	opRestoreCore:  "core.Synchronizer.RestoreState",
}

// envIO are the environment calls other than stepping and rendering:
// sensors, telemetry, commands and the batched sensor fetch.
var envIO = []op{opTelemetry, opIMU, opDepth, opSetVelocity, opFetchSensors}

// Thread lanes of the Chrome trace.
const (
	tidMain   = 1 // the synchronizer's goroutine
	tidWorker = 2 // the overlapped environment worker
	tidReplay = 3 // the DNN replay probe
)

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	op         op
	tid        uint8
	trace      uint32 // the mission (0 = set-up)
	id, parent uint32
	start, end int64
	arg        int64 // frames stepped, packets moved
}

// The trace file keeps, for the first mission of each name, its first
// keepQuanta quanta and up to keepFrameQuanta later quanta that serve a
// camera frame (the warm-up of a 1 ms flight alone spans 1500 quanta).
// Every quantum feeds the layer aggregates.
const (
	keepQuanta      = 300
	keepFrameQuanta = 100
)

// tracer records spans from the benchmark's own wrappers. Spans stay in
// memory and are written once, at exit. A nil *tracer runs set-up calls
// untimed.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	ids     uint32
	traces  uint32
	trace   uint32 // open mission's trace id
	mission uint32 // open mission span id
	mStart  int64
	quantum uint32 // open quantum span id (0 = none)
	overlap bool   // the open mission overlaps env and RTL
	first   bool   // the open mission is the first of its name
	keep    int    // leading quanta of the open mission still kept
	keepCam int    // camera-frame quanta of the open mission still kept
	agg     *layerAgg
	// children are the spans closed inside the open quantum.
	children []span
	kept     []span
	lanes    map[uint32]string
	seen     map[string]bool
	// setupNs are the set-up spans' durations by op.
	setupNs [numOps][]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), lanes: map[uint32]string{0: "set-up"}, seen: map[string]bool{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setup times one set-up call (untimed when t is nil).
func (t *tracer) setup(o op, fn func()) {
	if t == nil {
		fn()
		return
	}
	s := t.now()
	fn()
	e := t.now()
	t.mu.Lock()
	t.ids++
	t.kept = append(t.kept, span{op: o, tid: tidMain, id: t.ids, start: s, end: e})
	t.setupNs[o] = append(t.setupNs[o], e-s)
	t.mu.Unlock()
}

// beginMission opens a mission: its quanta feed agg. The first mission of
// each name keeps its first quanta in the trace file.
func (t *tracer) beginMission(name string, agg *layerAgg, overlap bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	t.ids++
	t.trace, t.mission, t.mStart = t.traces, t.ids, t.now()
	t.agg, t.overlap = agg, overlap
	t.first = !t.seen[name]
	t.keep, t.keepCam = 0, 0
	if t.first {
		t.seen[name] = true
		t.keep, t.keepCam = keepQuanta, keepFrameQuanta
		t.lanes[t.trace] = name
	}
}

func (t *tracer) endMission() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.first {
		t.kept = append(t.kept, span{op: opMission, tid: tidMain, trace: t.trace, id: t.mission, start: t.mStart, end: t.now()})
	}
	t.trace, t.mission, t.agg, t.first = 0, 0, nil, false
}

// record closes a span that started at start. Inside a quantum it is a
// child of the quantum; otherwise of the mission.
func (t *tracer) record(o op, start, arg int64) {
	end := t.now()
	t.mu.Lock()
	t.ids++
	sp := span{op: o, tid: tidMain, trace: t.trace, id: t.ids, parent: t.mission, start: start, end: end, arg: arg}
	if t.overlap && (o == opStepFrames || o == opTelemetry) {
		sp.tid = tidWorker
	}
	if t.quantum != 0 {
		sp.parent = t.quantum
		t.children = append(t.children, sp)
	} else if t.first {
		t.kept = append(t.kept, sp)
	}
	t.mu.Unlock()
}

// timed records fn as a span of the open mission.
func (t *tracer) timed(o op, fn func()) int64 {
	if t == nil {
		fn()
		return 0
	}
	s := t.now()
	fn()
	d := t.now() - s
	t.record(o, s, 0)
	return d
}

// addSpan records a span with known times outside any quantum.
func (t *tracer) addSpan(o op, tid uint8, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	if t.first {
		t.kept = append(t.kept, span{op: o, tid: tid, trace: t.trace, id: t.ids, parent: t.mission, start: start, end: end})
	}
}

// beginQuantum opens the span of one StepQuanta(1) call.
func (t *tracer) beginQuantum() int64 {
	t.mu.Lock()
	t.ids++
	t.quantum = t.ids
	t.mu.Unlock()
	return t.now()
}

// endQuantum closes the quantum and folds it and its children into the
// mission's layer aggregates.
func (t *tracer) endQuantum(start int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	q := span{op: opQuantum, tid: tidMain, trace: t.trace, id: t.quantum, parent: t.mission, start: start, end: end}
	t.agg.addQuantum(q, t.children, t.overlap)
	keep := t.keep > 0
	if keep {
		t.keep--
	} else if t.keepCam > 0 && servesFrame(t.children) {
		t.keepCam--
		keep = true
	}
	if keep {
		t.kept = append(t.kept, q)
		t.kept = append(t.kept, t.children...)
	}
	t.children = t.children[:0]
	t.quantum = 0
}

func servesFrame(children []span) bool {
	for _, c := range children {
		if c.op == opFrame || c.op == opFetchSensors {
			return true
		}
	}
	return false
}

// layerAgg accumulates one group of missions' quanta by layer.
type layerAgg struct {
	remote bool // the env and RTL are TCP clients: their calls are RPCs

	quanta    int64
	quantumNs []int64
	sumNs     int64
	selfNs    int64
	waitNs    int64
	opNs      [numOps]int64
	opCalls   [numOps]int64
	opArg     [numOps]int64
	frameNs   []int64
	rpcNs     []int64

	forwardNs        int64
	fp32Ns, int8Ns   []int64
	replayMismatches int64
	restoreNs        []int64

	// io and trace-event deltas over the group's TCP flights.
	ioCalls, ioBytes, traceEvents int64

	scratch [][2]int64
}

func isRPC(o op) bool {
	switch o {
	case opStepFrames, opTelemetry, opIMU, opDepth, opSetVelocity, opFetchSensors, opFrame, opRTLStep, opPush, opPull:
		return true
	}
	return false
}

func (a *layerAgg) addQuantum(q span, children []span, overlap bool) {
	d := q.end - q.start
	a.quanta++
	a.quantumNs = append(a.quantumNs, d)
	a.sumNs += d
	a.scratch = a.scratch[:0]
	var envEnd, rtlEnd int64
	for _, c := range children {
		cd := c.end - c.start
		a.opNs[c.op] += cd
		a.opCalls[c.op]++
		a.opArg[c.op] += c.arg
		if c.op == opFrame {
			a.frameNs = append(a.frameNs, cd)
		}
		if a.remote && isRPC(c.op) {
			a.rpcNs = append(a.rpcNs, cd)
		}
		if c.tid == tidWorker && c.end > envEnd {
			envEnd = c.end
		}
		if c.op == opRTLStep {
			rtlEnd = c.end
		}
		a.scratch = append(a.scratch, [2]int64{c.start, c.end})
	}
	a.selfNs += d - unionNs(q.start, q.end, a.scratch)
	if overlap && rtlEnd > 0 && envEnd > rtlEnd {
		a.waitNs += envEnd - rtlEnd
	}
}

// unionNs is the length of [lo, hi] covered by the union of the intervals.
// Children overlap under core.OverlapOn (the env worker runs beside the RTL
// step), so a parent's self time subtracts the union, not the sum. ivs is
// reordered.
func unionNs(lo, hi int64, ivs [][2]int64) int64 {
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j][0] < ivs[j-1][0]; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var covered, curS, curE int64
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			covered += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		covered += curE - curS
	}
	return covered
}

// frameLog keeps the camera frames a mission was served, in order, for the
// DNN replay probe.
type frameLog struct {
	frames []frameRec
}

type frameRec struct {
	w, h int
	pix  []byte
}

func (l *frameLog) add(w, h int, pix []byte) {
	if l != nil {
		l.frames = append(l.frames, frameRec{w: w, h: h, pix: append([]byte(nil), pix...)})
	}
}

// frameByter mirrors the synchronizer's camera fast path.
type frameByter interface {
	FrameBytesInto(dst []byte) (pix []byte, w, h int)
}

// tracedEnv times every environment call the synchronizer makes. wrapEnv
// returns a type with exactly the optional extensions (the camera fast path
// and the sensor batcher) the wrapped environment has, because the
// synchronizer type-asserts for them: adding or dropping one would change
// the program under test.
type tracedEnv struct {
	e      env.Env
	fb     frameByter
	sb     env.SensorBatcher
	t      *tracer
	frames *frameLog
}

type (
	envFB   struct{ *tracedEnv }
	envSB   struct{ *tracedEnv }
	envFBSB struct{ *tracedEnv }
)

func (w envFB) FrameBytesInto(dst []byte) ([]byte, int, int) { return w.frameBytesInto(dst) }
func (w envSB) FetchSensors(reqs []packet.Type) ([]packet.Packet, error) {
	return w.fetchSensors(reqs)
}
func (w envFBSB) FrameBytesInto(dst []byte) ([]byte, int, int) { return w.frameBytesInto(dst) }
func (w envFBSB) FetchSensors(reqs []packet.Type) ([]packet.Packet, error) {
	return w.fetchSensors(reqs)
}

func wrapEnv(e env.Env, t *tracer, frames *frameLog) env.Env {
	w := &tracedEnv{e: e, t: t, frames: frames}
	w.fb, _ = e.(frameByter)
	w.sb, _ = e.(env.SensorBatcher)
	switch {
	case w.fb != nil && w.sb != nil:
		return envFBSB{w}
	case w.fb != nil:
		return envFB{w}
	case w.sb != nil:
		return envSB{w}
	}
	return w
}

func (w *tracedEnv) StepFrames(n int) error {
	s := w.t.now()
	err := w.e.StepFrames(n)
	w.t.record(opStepFrames, s, int64(n))
	return err
}

func (w *tracedEnv) FrameRate() float64 { return w.e.FrameRate() }

func (w *tracedEnv) GetImage() (*render.Image, error) {
	s := w.t.now()
	img, err := w.e.GetImage()
	w.t.record(opFrame, s, 0)
	if err == nil {
		w.frames.add(img.W, img.H, img.BytesInto(nil))
	}
	return img, err
}

func (w *tracedEnv) GetIMU() (sensor.IMUReading, error) {
	s := w.t.now()
	r, err := w.e.GetIMU()
	w.t.record(opIMU, s, 0)
	return r, err
}

func (w *tracedEnv) GetDepth() (float64, error) {
	s := w.t.now()
	d, err := w.e.GetDepth()
	w.t.record(opDepth, s, 0)
	return d, err
}

func (w *tracedEnv) SetVelocity(forward, lateral, yawRate float64) error {
	s := w.t.now()
	err := w.e.SetVelocity(forward, lateral, yawRate)
	w.t.record(opSetVelocity, s, 0)
	return err
}

func (w *tracedEnv) Reset(x, y, z, yaw float64) error {
	s := w.t.now()
	err := w.e.Reset(x, y, z, yaw)
	w.t.record(opReset, s, 0)
	return err
}

func (w *tracedEnv) Telemetry() (env.Telemetry, error) {
	s := w.t.now()
	tm, err := w.e.Telemetry()
	w.t.record(opTelemetry, s, 0)
	return tm, err
}

func (w *tracedEnv) frameBytesInto(dst []byte) ([]byte, int, int) {
	s := w.t.now()
	pix, fw, fh := w.fb.FrameBytesInto(dst)
	w.t.record(opFrame, s, 0)
	w.frames.add(fw, fh, pix)
	return pix, fw, fh
}

func (w *tracedEnv) fetchSensors(reqs []packet.Type) ([]packet.Packet, error) {
	s := w.t.now()
	pkts, err := w.sb.FetchSensors(reqs)
	w.t.record(opFetchSensors, s, int64(len(reqs)))
	for _, p := range pkts {
		if p.Type != packet.CamData {
			continue
		}
		if f, ferr := packet.UnmarshalCamFrame(p); ferr == nil {
			w.frames.add(f.W, f.H, f.Pix)
		}
	}
	return pkts, err
}

// tracedRTL times the synchronizer's RTL calls; like tracedEnv it has the
// energy view exactly when the wrapped RTL has it.
type tracedRTL struct {
	r core.RTL
	t *tracer
}

type rtlEnergy struct {
	*tracedRTL
	er core.EnergyRTL
}

func (w rtlEnergy) EnergyBreakdown() soc.EnergyBreakdown { return w.er.EnergyBreakdown() }

func wrapRTL(r core.RTL, t *tracer) core.RTL {
	w := &tracedRTL{r: r, t: t}
	if er, ok := r.(core.EnergyRTL); ok {
		return rtlEnergy{tracedRTL: w, er: er}
	}
	return w
}

func (w *tracedRTL) Step(cycles uint64) (uint64, error) {
	s := w.t.now()
	used, err := w.r.Step(cycles)
	w.t.record(opRTLStep, s, 0)
	return used, err
}

func (w *tracedRTL) Push(pkts []packet.Packet) error {
	s := w.t.now()
	err := w.r.Push(pkts)
	w.t.record(opPush, s, int64(len(pkts)))
	return err
}

func (w *tracedRTL) Pull() ([]packet.Packet, error) {
	s := w.t.now()
	pkts, err := w.r.Pull()
	w.t.record(opPull, s, int64(len(pkts)))
	return pkts, err
}

func (w *tracedRTL) Cycle() uint64    { return w.r.Cycle() }
func (w *tracedRTL) Stats() soc.Stats { return w.r.Stats() }
func (w *tracedRTL) Done() bool       { return w.r.Done() }

// chromeEvent is one Chrome trace event ("X" complete span or "M"
// metadata), loadable by Perfetto and chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  uint32         `json:"pid"`
	Tid  uint8          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the kept spans as a Chrome trace: one process lane per
// mission (set-up is lane 0), one thread lane per goroutine role. Each span
// carries its id, parent and trace id. table is stored alongside.
func (t *tracer) writeChrome(path string, table map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		f.Close()
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for trace, name := range t.lanes {
		if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: trace, Args: map[string]any{"name": name}}); err != nil {
			f.Close()
			return err
		}
	}
	for _, tid := range []uint8{tidMain, tidWorker, tidReplay} {
		name := map[uint8]string{tidMain: "synchronizer", tidWorker: "env worker", tidReplay: "dnn replay"}[tid]
		for trace := range t.lanes {
			if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: trace, Tid: tid, Args: map[string]any{"name": name}}); err != nil {
				f.Close()
				return err
			}
		}
	}
	for _, s := range t.kept {
		name := opNames[s.op]
		cat := name
		for i := range name {
			if name[i] == '.' {
				cat = name[:i]
				break
			}
		}
		ev := chromeEvent{
			Name: name, Cat: cat, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: s.trace, Tid: s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "trace": s.trace},
		}
		if s.arg != 0 {
			ev.Args["n"] = s.arg
		}
		if err := emit(ev); err != nil {
			f.Close()
			return err
		}
	}
	tail, err := json.Marshal(map[string]any{"layers": table})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := fmt.Fprintf(bw, "],\"displayTimeUnit\":\"ns\",\"otherData\":%s}\n", tail); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
