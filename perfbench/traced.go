package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/gemmini"
	"repro/internal/ort"
	"repro/internal/scenario"
	"repro/internal/snapshot"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/vec"
	"repro/internal/world"
)

// assembled is one mission built from the public constructors experiments
// uses, so the traced run can wrap the env.Env and core.RTL it hands to
// core.New.
type assembled struct {
	sim  *env.Sim
	mach *soc.Machine
	sy   *core.Synchronizer
	log  *app.Log
}

// assemble mirrors experiments' mission assembly for in-process missions.
// m, when non-nil, is a shared map; img, when non-nil, restores every layer
// from the image. With a tracer the synchronizer sees wrapped layers and the
// restores are spans. Specs carry every default explicitly (see workload.go).
func assemble(spec experiments.MissionSpec, m *world.Map, img *snapshot.Image, t *tracer, frames *frameLog) (a *assembled, err error) {
	if m == nil {
		if m = world.ByName(spec.Map); m == nil {
			return nil, fmt.Errorf("unknown map %q", spec.Map)
		}
	}
	var scn *scenario.Spec
	if spec.Scenario != "" {
		if scn = scenario.ByName(spec.Scenario); scn == nil {
			return nil, fmt.Errorf("unknown scenario %q", spec.Scenario)
		}
	}
	ecfg := env.DefaultConfig(m)
	ecfg.StartX = spec.StartX
	ecfg.StartY = spec.StartY
	ecfg.StartYaw = vec.Deg(spec.StartYawDeg)
	ecfg.Seed = spec.Seed + 1
	ecfg.Scenario = scn
	ecfg.Drone = spec.Drone
	a = &assembled{log: &app.Log{}}
	if a.sim, err = env.New(ecfg); err != nil {
		return nil, err
	}
	var restore int64
	if img != nil {
		restore += t.timed(opRestoreEnv, func() { a.sim.RestoreState(img.Env) })
	}

	var loop soc.StateProgram
	if spec.Model == "" && scn != nil && len(scn.Script) > 0 {
		loop = app.NewScriptedLoop(scn.Script, app.DefaultScriptParams(), a.log)
	} else {
		tm, err := dnn.Trained(spec.Model)
		if err != nil {
			return nil, err
		}
		sess, err := ort.NewSessionP(tm.Net, gemmini.Default(), spec.Precision)
		if err != nil {
			return nil, err
		}
		ctrl := app.DefaultControlParams(spec.VForward)
		ctrl.Temperature = app.TemperatureFor(spec.Model)
		ctrl.Argmax = spec.Argmax
		loop = app.NewStaticLoop(sess, ctrl, a.log)
	}

	socCfg := spec.HW.SoCConfig()
	socCfg.RxQueueBytes = spec.RxQueueBytes
	socCfg.EnergyOff = spec.EnergyOff
	if img != nil {
		restore += t.timed(opRestoreSoC, func() { a.mach, err = soc.RestoreMachine(socCfg, loop, &img.SoC) })
		if err != nil {
			return nil, err
		}
	} else {
		a.mach = soc.NewStateMachine(socCfg, loop)
	}

	ccfg := core.DefaultConfig()
	ccfg.SyncCycles = spec.SyncCycles
	ccfg.MaxSimSeconds = spec.MaxSimSec
	ccfg.ExchangeEveryN = spec.ExchangeEveryN
	ccfg.Overlap = spec.Overlap
	ccfg.RecordFingerprints = spec.RecordFingerprints
	var (
		e   env.Env  = a.sim
		rtl core.RTL = a.mach
	)
	if t != nil {
		e, rtl = wrapEnv(e, t, frames), wrapRTL(rtl, t)
	}
	if a.sy, err = core.New(e, rtl, ccfg); err != nil {
		a.mach.Close()
		return nil, err
	}
	if img != nil {
		restore += t.timed(opRestoreCore, func() { err = a.sy.RestoreState(img.Core) })
		if err != nil {
			a.mach.Close()
			return nil, err
		}
		if t != nil && t.agg != nil {
			t.agg.restoreNs = append(t.agg.restoreNs, restore)
		}
	}
	return a, nil
}

// stepMission runs a synchronizer to the end one StepQuanta(1) call at a
// time, each a quantum span. Without a tracer it is sy.Run.
func stepMission(sy *core.Synchronizer, t *tracer) (*core.Result, error) {
	if t == nil {
		return sy.Run()
	}
	if err := sy.Start(); err != nil {
		return nil, err
	}
	for {
		q := t.beginQuantum()
		done, err := sy.StepQuanta(1)
		t.endQuantum(q)
		if err != nil {
			_, _ = sy.Finish() // stops the overlap worker; err is the one to report
			return nil, err
		}
		if done {
			return sy.Finish()
		}
	}
}

// tracedCapture runs a shared prefix through the public constructors and
// captures its image, with snapshot.Capture as its own set-up span.
func tracedCapture(spec experiments.MissionSpec, prefixQuanta int, t *tracer) (*snapshot.Image, error) {
	a, err := assemble(spec, nil, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	defer a.mach.Close()
	if err := a.sy.Start(); err != nil {
		return nil, err
	}
	done, err := a.sy.StepQuanta(prefixQuanta)
	if err != nil {
		return nil, err
	}
	if done {
		return nil, fmt.Errorf("mission ended before the divergence quantum %d", prefixQuanta)
	}
	raw, err := spec.MetaSpec()
	if err != nil {
		return nil, err
	}
	var img *snapshot.Image
	t.setup(opCapture, func() { img, err = snapshot.Capture(a.sy, a.sim, a.mach, snapshot.Meta{Spec: raw}) })
	if err != nil {
		return nil, err
	}
	_, _ = a.sy.Finish() // the prefix mission is abandoned, as CaptureMission does
	return img, nil
}

// replayer re-runs the forward passes of a flight on the frames the env
// wrapper served, decoded as app does, timing each pass. A pass counts only
// if its output equals the flight's logged output bit for bit.
type replayer struct {
	sessions map[string]*ort.Session
}

func (r *replayer) replay(t *tracer, agg *layerAgg, spec experiments.MissionSpec, frames *frameLog, recs []app.InferenceRecord) error {
	if len(frames.frames) == 0 {
		return nil
	}
	key := spec.Model + "/" + spec.Precision.String()
	sess := r.sessions[key]
	if sess == nil {
		tm, err := dnn.Trained(spec.Model)
		if err != nil {
			return err
		}
		if sess, err = ort.NewSessionP(tm.Net, gemmini.Default(), spec.Precision); err != nil {
			return err
		}
		r.sessions[key] = sess
	}
	n := min(len(frames.frames), len(recs))
	var in *tensor.Tensor
	for i := 0; i < n; i++ {
		f := frames.frames[i]
		if in == nil || len(in.Data) != f.w*f.h {
			in = tensor.New(1, f.h, f.w)
		}
		for j, b := range f.pix {
			in.Data[j] = float32(b)/255 - 0.5
		}
		s := t.now()
		out := sess.Forward(nil, in)
		e := t.now()
		if !sameOutput(out, recs[i].Output) {
			agg.replayMismatches++
			continue
		}
		agg.forwardNs += e - s
		if spec.Precision == dnn.PrecisionInt8 {
			agg.int8Ns = append(agg.int8Ns, e-s)
		} else {
			agg.fp32Ns = append(agg.fp32Ns, e-s)
		}
		t.addSpan(opForward, tidReplay, s, e)
	}
	return nil
}

func sameOutput(a, b dnn.Output) bool {
	for i := range a.Lateral {
		if math.Float32bits(a.Lateral[i]) != math.Float32bits(b.Lateral[i]) ||
			math.Float32bits(a.Angular[i]) != math.Float32bits(b.Angular[i]) {
			return false
		}
	}
	return true
}

// tracedRun holds the traced run's state.
type tracedRun struct {
	st     *setupState
	t      *tracer
	rp     *replayer
	main   *layerAgg // the workload's missions
	inproc *layerAgg // tcp-1ms: the same flights in-process
}

func newTracedRun(st *setupState, t *tracer) *tracedRun {
	return &tracedRun{
		st: st, t: t, rp: &replayer{sessions: map[string]*ort.Session{}},
		main: &layerAgg{remote: st.tcp != nil}, inproc: &layerAgg{},
	}
}

// flyTraced flies one mission through wrapped layers and returns its host
// time, which excludes the replay probe and, on tcp-1ms, the in-process
// twin flight.
func (tr *tracedRun) flyTraced(m mission) (outcome, time.Duration, error) {
	t := tr.t
	switch m.kind {
	case kindRun, kindTCP:
		out, wall, err := tr.flyOne(m.name, m.spec, m.kind == kindTCP, tr.main)
		if err != nil || m.kind != kindTCP {
			return out, wall, err
		}
		// The same flight in-process gives the wire's share of a quantum;
		// it must also reproduce the remote flight (remote = local).
		twin, _, err := tr.flyOne(m.name+"/in-process", m.spec, false, tr.inproc)
		if err != nil {
			return outcome{}, wall, err
		}
		if d := diffRefs(twin.refs, out.refs); len(d) > 0 {
			return outcome{}, wall, fmt.Errorf("remote flight differs from in-process: %s", strings.Join(d, "; "))
		}
		return out, wall, nil
	case kindFork:
		w0 := time.Now()
		im := tr.st.images[m.image]
		t.beginMission(m.name, tr.main, m.spec.Overlap == core.OverlapOn)
		defer t.endMission()
		a, err := assemble(m.spec, im.m, im.img, t, nil)
		if err != nil {
			return outcome{}, 0, err
		}
		defer a.mach.Close()
		a.sim.ReseedSensors(m.sensorSeed)
		res, err := stepMission(a.sy, t)
		if err != nil {
			return outcome{}, 0, err
		}
		out := outcomeOf([]*experiments.MissionOutcome{{Spec: m.spec, Result: res, Inferences: a.log.Records()}}, im.img)
		return out, time.Since(w0), nil
	case kindSwarm:
		w0 := time.Now()
		t.beginMission(m.name, tr.main, m.spec.Overlap == core.OverlapOn)
		defer t.endMission()
		out, err := tracedSwarm(m.spec, t)
		return out, time.Since(w0), err
	}
	return outcome{}, 0, fmt.Errorf("mission %s: unknown kind %d", m.name, m.kind)
}

// flyOne flies a single-drone mission, in-process or over TCP, then replays
// its forward passes. The returned host time covers the flight only.
func (tr *tracedRun) flyOne(name string, spec experiments.MissionSpec, remote bool, agg *layerAgg) (outcome, time.Duration, error) {
	t := tr.t
	frames := &frameLog{}
	w0 := time.Now()
	t.beginMission(name, agg, spec.Overlap == core.OverlapOn)
	defer t.endMission()
	var out *experiments.MissionOutcome
	if remote {
		var err error
		if out, err = tr.st.tcp.fly(spec, t, frames, agg); err != nil {
			return outcome{}, 0, err
		}
	} else {
		a, err := assemble(spec, nil, nil, t, frames)
		if err != nil {
			return outcome{}, 0, err
		}
		res, err := stepMission(a.sy, t)
		a.mach.Close()
		if err != nil {
			return outcome{}, 0, err
		}
		out = &experiments.MissionOutcome{Spec: spec, Result: res, Inferences: a.log.Records()}
	}
	wall := time.Since(w0)
	if err := tr.rp.replay(t, agg, spec, frames, out.Inferences); err != nil {
		return outcome{}, wall, err
	}
	return outcomeOf([]*experiments.MissionOutcome{out}, nil), wall, nil
}

// tracedSwarm flies a fleet the way experiments.RunSwarm does: every drone
// advances one quantum at a time and sees its peers' previous-quantum poses.
func tracedSwarm(spec experiments.MissionSpec, t *tracer) (outcome, error) {
	specs, err := experiments.SwarmSpecs(spec)
	if err != nil {
		return outcome{}, err
	}
	m := world.ByName(specs[0].Map)
	if m == nil {
		return outcome{}, fmt.Errorf("unknown map %q", specs[0].Map)
	}
	drones := make([]*assembled, 0, len(specs))
	defer func() {
		for _, a := range drones {
			a.mach.Close()
		}
	}()
	for _, sp := range specs {
		a, err := assemble(sp, m, nil, t, nil)
		if err != nil {
			return outcome{}, err
		}
		drones = append(drones, a)
		if err := a.sy.Start(); err != nil {
			return outcome{}, err
		}
	}
	n := len(drones)
	bodies := make([]world.Body, n)
	for i, a := range drones {
		bodies[i] = a.sim.BodyState()
	}
	peers := make([]world.Body, 0, n-1)
	done := make([]bool, n)
	for remaining := n; remaining > 0; {
		for i, a := range drones {
			if done[i] {
				continue
			}
			peers = peers[:0]
			for j := range bodies {
				if j != i {
					peers = append(peers, bodies[j])
				}
			}
			a.sim.SetPeers(peers)
			q := t.beginQuantum()
			d, err := a.sy.StepQuanta(1)
			t.endQuantum(q)
			if err != nil {
				return outcome{}, fmt.Errorf("drone %d: %w", i, err)
			}
			if d {
				done[i] = true
				remaining--
			}
		}
		for i, a := range drones {
			bodies[i] = a.sim.BodyState()
		}
	}
	outs := make([]*experiments.MissionOutcome, n)
	for i, a := range drones {
		res, err := a.sy.Finish()
		if err != nil {
			return outcome{}, fmt.Errorf("finishing drone %d: %w", i, err)
		}
		outs[i] = &experiments.MissionOutcome{Spec: specs[i], Result: res, Inferences: a.log.Records()}
	}
	return outcomeOf(outs, nil), nil
}

// runTraced is --trace 1: one traced set-up, then untraced and traced
// passes of the same missions alternate until the measuring time is up. The
// traced passes give the per-layer metrics; the pair gives the overhead.
func runTraced(w *workload, seed int64, seconds float64, tracePath string, stdout io.Writer) (*result, error) {
	t := newTracer()
	st, err := setUp(w, seed, t, true)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	tr := newTracedRun(st, t)
	ms := w.missions(seed)
	c, err := newChecker(w, seed, stdout)
	if err != nil {
		return nil, err
	}
	untraced, traced := newTiming(ms), newTiming(ms)
	limit := time.Duration(seconds * float64(time.Second))
	t0 := time.Now()
	for untraced.passes == 0 || time.Since(t0) < limit {
		for i, m := range ms {
			w0 := time.Now()
			out, err := fly(m, st)
			untraced.add(i, out, sample{wall: time.Since(w0), refs: out.refs, err: err})
		}
		untraced.passes++
		for i, m := range ms {
			out, wall, err := tr.flyTraced(m)
			traced.add(i, out, sample{wall: wall, refs: out.refs, err: err})
		}
		traced.passes++
	}
	// Every traced mission must reproduce the untraced program's outputs:
	// the same checker sees both sides.
	untraced.verify(c)
	traced.verify(c)
	fmt.Fprintf(stdout, "traced: %d untraced + %d traced passes, %.2f s; check: %s, %d/%d missions ok\n",
		untraced.passes, traced.passes, time.Since(t0).Seconds(), c.how, c.attempts-c.failures, c.attempts)

	overhead := 0.0
	if ur, trr := untraced.rates(), traced.rates(); trr.mhz > 0 {
		overhead = 100 * (ur.mhz/trr.mhz - 1)
	}
	table := tr.layerTable(traced.simulated(), st, overhead)
	printTable(stdout, w, table, tr)
	if err := t.writeChrome(tracePath, table); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(t.kept), tracePath)

	m := map[string]metricValue{}
	for _, d := range perLayer {
		v, ok := table[d.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", d.Name)
		}
		m[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return &result{Correct: c.failures == 0, Attempted: c.attempts, Failed: c.failures, Metrics: m}, nil
}

// layerTable computes every per-layer metric, including the host times that
// only some workloads have (see perLayer).
func (tr *tracedRun) layerTable(sim simStats, st *setupState, overheadPct float64) map[string]float64 {
	a := tr.main
	q := float64(max(a.quanta, 1))
	perQ := func(ns int64) float64 { return float64(ns) / q / 1e3 }
	pct := func(ns int64) float64 {
		if a.sumNs == 0 {
			return 0
		}
		return 100 * float64(ns) / float64(a.sumNs)
	}
	sum := func(ops ...op) (ns int64) {
		for _, o := range ops {
			ns += a.opNs[o]
		}
		return ns
	}
	m := map[string]float64{
		"core.quantum_us_p50":              quantileNs(a.quantumNs, 0.5),
		"core.quantum_us_p99":              quantileNs(a.quantumNs, 0.99),
		"core.quanta":                      float64(a.quanta),
		"core.self_us_per_quantum":         perQ(a.selfNs),
		"core.overlap_wait_us_per_quantum": perQ(a.waitNs),
		"core.overlap_wait_pct":            pct(a.waitNs),
		"env.step_us_per_quantum":          perQ(a.opNs[opStepFrames]),
		"env.frames_per_quantum":           float64(a.opArg[opStepFrames]) / q,
		"env.io_us_per_quantum":            perQ(sum(envIO...)),
		"render.frame_us_p50":              quantileNs(a.frameNs, 0.5),
		"render.frames":                    float64(a.opCalls[opFrame]),
		"render.share_pct":                 pct(a.opNs[opFrame]),
		"soc.step_us_per_quantum":          perQ(a.opNs[opRTLStep]),
		"soc.engine_us_per_quantum":        perQ(a.opNs[opRTLStep] - a.forwardNs),
		"bridge.xfer_us_per_quantum":       perQ(sum(opPush, opPull)),
		"bridge.packets_per_quantum":       float64(a.opArg[opPush]+a.opArg[opPull]) / q,
		"dnn.fp32_forward_us_p50":          quantileNs(a.fp32Ns, 0.5),
		"dnn.int8_forward_us_p50":          quantileNs(a.int8Ns, 0.5),
		"dnn.forward_pct":                  pct(a.forwardNs),
		"dnn.inferences":                   float64(len(a.fp32Ns) + len(a.int8Ns)),
		"dnn.train_s":                      median(nsToSeconds(tr.t.setupNs[opTrain])),
		"packet.rpcs_per_quantum":          float64(len(a.rpcNs)) / q,
		"packet.rpc_us_p50":                quantileNs(a.rpcNs, 0.5),
		"packet.rpc_us_p99":                quantileNs(a.rpcNs, 0.99),
		"packet.bytes_per_quantum":         float64(a.ioBytes) / q,
		"packet.io_calls_per_quantum":      float64(a.ioCalls) / q,
		"obs.trace_events_per_quantum":     float64(a.traceEvents) / q,
		"snapshot.capture_ms":              median(nsToSeconds(tr.t.setupNs[opCapture])) * 1e3,
		"snapshot.encode_ms":               median(nsToSeconds(tr.t.setupNs[opEncode])) * 1e3,
		"snapshot.decode_ms":               median(nsToSeconds(tr.t.setupNs[opDecode])) * 1e3,
		"snapshot.restore_us_p50":          quantileNs(a.restoreNs, 0.5),
		"bench.trace_overhead_pct":         overheadPct,
	}
	// Wire time: a TCP quantum's mean minus the same flights' in-process
	// mean.
	wire := 0.0
	if a.remote && tr.inproc.quanta > 0 && a.quanta > 0 {
		wire = float64(a.sumNs)/q/1e3 - float64(tr.inproc.sumNs)/float64(tr.inproc.quanta)/1e3
	}
	m["packet.wire_us_per_quantum"] = wire
	m["packet.wire_pct"] = 0
	if a.sumNs > 0 {
		m["packet.wire_pct"] = 100 * wire * 1e3 * q / float64(a.sumNs)
	}
	retries := 0.0
	if st.tcp != nil && st.tcp.io != nil {
		retries = float64(st.tcp.io.dials.Load() - int64(st.tcp.dials))
	}
	m["packet.retries"] = retries
	kib := 0.0
	for _, im := range st.images {
		kib += float64(im.bytes) / 1024 / float64(len(st.images))
	}
	m["snapshot.image_kib"] = kib
	act := 0.0
	if sim.cycles > 0 {
		act = 100 * float64(sim.accelCycles) / float64(sim.cycles)
	}
	m["soc.sim_cycles"] = float64(sim.cycles)
	m["soc.sim_activity_pct"] = act
	m["soc.sim_energy_mj"] = float64(sim.energyPJ) * 1e-9
	m["app.sim_inferences"] = float64(sim.inferences)
	m["app.sim_latency_ms_p50"] = median(sim.latencyMs)
	m["env.sim_collisions"] = float64(sim.collisions)
	m["env.sim_mission_s"] = sim.missionSec
	return m
}

// printShares prints each layer's share of a group's quantum time. On TCP
// flights every env and RTL call is an RPC, so the wire's share (TCP mean
// quantum minus the in-process mean) is printed as well.
func printShares(w io.Writer, label string, a *layerAgg, wireUsPerQ float64) {
	if a.sumNs == 0 {
		return
	}
	share := func(ns int64) string { return fmt.Sprintf("%.1f%%", 100*float64(ns)/float64(a.sumNs)) }
	var envIONs int64
	for _, o := range envIO {
		envIONs += a.opNs[o]
	}
	rows := []string{
		"core self " + share(a.selfNs),
		"env.step " + share(a.opNs[opStepFrames]),
		"env.io " + share(envIONs),
		"render " + share(a.opNs[opFrame]),
		"soc.engine " + share(a.opNs[opRTLStep]-a.forwardNs),
		"dnn.forward " + share(a.forwardNs),
		"bridge " + share(a.opNs[opPush]+a.opNs[opPull]),
	}
	if a.remote {
		rows = append(rows, "packet.wire "+share(int64(wireUsPerQ*1e3*float64(a.quanta))))
	}
	fmt.Fprintf(w, "host-time share of %s: %s\n", label, strings.Join(rows, ", "))
}

func nsToSeconds(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e9
	}
	return out
}

// printTable prints every per-layer metric, then each layer's share of the
// traced quantum time.
func printTable(w io.Writer, wl *workload, m map[string]float64, tr *tracedRun) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "per-layer metrics (%s, traced passes):\n", wl.name)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.4f\n", k, m[k])
	}
	printShares(w, "traced quanta", tr.main, m["packet.wire_us_per_quantum"])
	if tr.main.remote {
		printShares(w, "the same flights in-process", tr.inproc, 0)
	}
	if wl.overlap == core.OverlapOn {
		fmt.Fprintln(w, "  (the env worker overlaps the RTL step, so shares can sum past 100%)")
	}
	a := tr.main
	if a.replayMismatches > 0 {
		fmt.Fprintf(w, "dnn replay: %d forward passes did not reproduce the logged output and were not counted\n", a.replayMismatches)
	}
}
