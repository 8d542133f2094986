// Package experiments contains one harness per table/figure of the paper's
// evaluation (Section 5), regenerating the same rows and series from the Go
// co-simulation stack. See DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/app"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/env"
	"repro/internal/gemmini"
	"repro/internal/obs"
	"repro/internal/ort"
	"repro/internal/scenario"
	"repro/internal/snapshot"
	"repro/internal/soc"
	"repro/internal/telemetry"
	"repro/internal/vec"
	"repro/internal/world"
)

// Report is the common output of every experiment: printable rows plus the
// raw series/trajectories for CSV export.
type Report struct {
	ID           string
	Title        string
	Lines        []string
	Series       []telemetry.Series
	Trajectories map[string][]env.Telemetry
	// Tables carries multi-column exports (first row = header) that a
	// two-column Series cannot express — the energy-Pareto point table, for
	// one. rose-sweep writes each as <id>_<key>.csv and .json.
	Tables map[string][][]string
}

func (r *Report) line(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// MissionSpec describes one closed-loop run.
type MissionSpec struct {
	Map         string // map name, e.g. "tunnel" or "corridor:7" (see world.Names)
	Model       string // DNN variant (big model for dynamic runs; "" with a scenario script = scripted patrol)
	SmallModel  string // small model for the dynamic runtime ("" = static)
	HW          config.HW
	VForward    float64
	StartYawDeg float64
	StartX      float64 // defaults to 2 m (inside the training envelope)
	StartY      float64 // lateral start offset (fleet members fan out here)
	SyncCycles  uint64  // defaults to one 60 Hz frame at 1 GHz
	MaxSimSec   float64 // defaults to 60 s
	Seed        int64
	// Scenario names a deployment scenario from the catalog (e.g. "storm:7",
	// see scenario.Names): wind, sensor degradation, moving obstacles, patrol
	// scripts, fleet size. "" is the calm baseline — bit-identical to a
	// scenario-free build. Requires an in-process environment.
	Scenario string
	// Drone is this mission's index within a fleet; it offsets the
	// scenario's per-subsystem RNG streams (see scenario.Spec).
	Drone int
	// RxQueueBytes overrides the bridge RX queue capacity (0 = default);
	// used by the queue-depth ablation.
	RxQueueBytes int
	// ExchangeEveryN relaxes lockstep data exchange (see core.Config).
	ExchangeEveryN int
	// Argmax forces the full-magnitude argmax control policy (§5.2).
	Argmax bool
	// Overlap selects concurrent (default) or serial quantum execution
	// (see core.OverlapMode); results are byte-identical either way.
	Overlap core.OverlapMode
	// Precision selects the inference datapath (dnn.PrecisionFP32, the
	// zero value, or dnn.PrecisionInt8 for the quantized Gemmini mode).
	Precision dnn.Precision
	// Obs instruments the run: synchronizer phases, bridge queues, SoC
	// counters, and app inference latency feed one instrument set. A
	// single-mission run takes the suite's unlabeled bundles
	// (obs.Suite.Parent); sweeps and fleets take a labeled per-mission
	// scope (obs.Suite.Mission, assigned per spec by Options.stamp), which
	// keeps N concurrent missions' series apart while /metrics still
	// exposes the aggregates. Nil (the default) keeps every hook a no-op
	// nil check.
	Obs *obs.MissionObs
	// EnvAddr, when set, runs the mission against a remote environment
	// server (rose-env-server) at this address instead of an in-process
	// simulator. The client resets the remote vehicle to the spec's start
	// pose before the run; frame rate, map, and noise seed are the
	// server's.
	EnvAddr string
	// EnvDial configures the remote-environment transport: dial/RPC
	// deadlines and, when MaxRetries > 0, transparent reconnect with
	// idempotent replay. Ignored unless EnvAddr is set.
	EnvDial env.DialOptions
	// EnergyOff disables the SoC energy ledger for this mission — the
	// with/without pair the overhead benchmark measures. Accounting is
	// observation-only, so timing and trajectory are unchanged either way.
	EnergyOff bool
	// RecordFingerprints keeps the whole per-quantum determinism-fingerprint
	// chain in the result (core.Result.Fingerprints) for fingerprint logs
	// and divergence bisection. The rolling fingerprint itself is always on;
	// this only controls retaining the history.
	RecordFingerprints bool
}

// MissionOutcome bundles the synchronizer result with the app-level log.
type MissionOutcome struct {
	Spec       MissionSpec
	Result     *core.Result
	Inferences []app.InferenceRecord
}

// Fallbacks counts dynamic-runtime iterations that used the small network.
func (o *MissionOutcome) Fallbacks() int {
	n := 0
	for _, r := range o.Inferences {
		if r.UsedFallback {
			n++
		}
	}
	return n
}

// withDefaults fills the spec's zero-value knobs.
func (spec MissionSpec) withDefaults() MissionSpec {
	if spec.SyncCycles == 0 {
		spec.SyncCycles = core.DefaultConfig().SyncCycles
	}
	if spec.MaxSimSec == 0 {
		spec.MaxSimSec = 60
	}
	if spec.StartX == 0 {
		spec.StartX = 2
	}
	return spec
}

// socConfig derives the SoC engine configuration from the spec.
func (spec MissionSpec) socConfig() soc.Config {
	cfg := spec.HW.SoCConfig()
	cfg.RxQueueBytes = spec.RxQueueBytes
	cfg.EnergyOff = spec.EnergyOff
	if spec.Obs != nil {
		cfg.Obs = spec.Obs.SoC
	}
	return cfg
}

// coreConfig derives the synchronizer configuration from the spec.
func (spec MissionSpec) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SyncCycles = spec.SyncCycles
	cfg.MaxSimSeconds = spec.MaxSimSec
	cfg.ExchangeEveryN = spec.ExchangeEveryN
	cfg.Overlap = spec.Overlap
	if spec.Obs != nil {
		cfg.Obs = spec.Obs.Core
	}
	cfg.RecordFingerprints = spec.RecordFingerprints
	return cfg
}

// scenarioSpec resolves the spec's scenario name against the catalog.
// "" resolves to nil (the calm baseline).
func (spec MissionSpec) scenarioSpec() (*scenario.Spec, error) {
	if spec.Scenario == "" {
		return nil, nil
	}
	scn := scenario.ByName(spec.Scenario)
	if scn == nil {
		return nil, fmt.Errorf("experiments: unknown scenario %q (want one of %v)", spec.Scenario, scenario.Names())
	}
	return scn, nil
}

// newSim builds the in-process environment simulator for the spec on the
// given (possibly shared) map.
func (spec MissionSpec) newSim(m *world.Map, scn *scenario.Spec) (*env.Sim, error) {
	ecfg := env.DefaultConfig(m)
	ecfg.StartX = spec.StartX
	ecfg.StartY = spec.StartY
	ecfg.StartYaw = vec.Deg(spec.StartYawDeg)
	ecfg.Seed = spec.Seed + 1
	ecfg.Scenario = scn
	ecfg.Drone = spec.Drone
	return env.New(ecfg)
}

// newController builds the resumable controller (and its sessions) for the
// spec. The returned StateProgram is what snapshot images serialize the app
// state of; model weights come from the process-wide trained-model cache, so
// forked missions share them copy-on-write automatically.
//
// A spec with no model but a scenario patrol script gets the scripted
// controller: the platform pipeline runs unchanged with scalar planner
// compute in place of DNN inference.
func (spec MissionSpec) newController(log *app.Log, scn *scenario.Spec) (soc.StateProgram, error) {
	if spec.Model == "" && scn != nil && len(scn.Script) > 0 {
		p := app.DefaultScriptParams()
		return app.NewScriptedLoop(scn.Script, p, log), nil
	}
	big, err := dnn.Trained(spec.Model)
	if err != nil {
		return nil, err
	}
	bigSess, err := ort.NewSessionP(big.Net, gemmini.Default(), spec.Precision)
	if err != nil {
		return nil, err
	}
	ctrl := app.DefaultControlParams(spec.VForward)
	ctrl.Temperature = app.TemperatureFor(spec.Model)
	ctrl.Argmax = spec.Argmax
	if spec.SmallModel != "" {
		small, err := dnn.Trained(spec.SmallModel)
		if err != nil {
			return nil, err
		}
		smallSess, err := ort.NewSessionP(small.Net, gemmini.Default(), spec.Precision)
		if err != nil {
			return nil, err
		}
		return app.NewDynamicLoop(bigSess, smallSess, ctrl, app.DefaultDynamicParams(), log), nil
	}
	return app.NewStaticLoop(bigSess, ctrl, log), nil
}

// Mission is one assembled co-simulation, driven stepwise through the
// synchronizer's lockstep loop (Algorithm 1): NewMission → Step → Capture /
// Finish, with Close releasing it. Every mission entry point in this
// package is a short caller of it.
type Mission struct {
	spec MissionSpec
	sim  *env.Sim // non-nil for in-process environments
	log  *app.Log
	mach *soc.Machine
	sy   *core.Synchronizer
	// started/finished track the synchronizer's Start and Finish, so Close
	// knows whether the overlap env worker is still running.
	started, finished bool
	// closers run LIFO on Close: machine teardown before transport close.
	closers []func()
}

// NewMission assembles a mission from its spec. sharedMap, when non-nil, is
// used instead of a fresh world.ByName lookup — the fork path passes one map
// pointer to every child, sharing the read-only geometry copy-on-write.
// img, when non-nil, restores every layer from the snapshot instead of
// starting from reset: the simulator rewinds to the captured state, the SoC
// machine is rebuilt mid-request via soc.RestoreMachine, and the
// synchronizer continues the captured loop progress. The caller must Close
// the returned mission.
func NewMission(spec MissionSpec, sharedMap *world.Map, img *snapshot.Image) (ms *Mission, err error) {
	spec = spec.withDefaults()
	ms = &Mission{spec: spec}
	// Close over a copy of the pointer: error returns write nil to the named
	// return, but the closers appended so far must still run.
	built := ms
	defer func() {
		if err != nil {
			built.Close()
		}
	}()
	// With observability off every bundle below is nil, and every hook a
	// no-op nil check.
	o := spec.Obs
	if o == nil {
		o = &obs.MissionObs{}
	}

	m := sharedMap
	if m == nil {
		if m = world.ByName(spec.Map); m == nil {
			return nil, fmt.Errorf("experiments: unknown map %q", spec.Map)
		}
	}
	scn, err := spec.scenarioSpec()
	if err != nil {
		return nil, err
	}

	var e env.Env
	if spec.EnvAddr != "" {
		if img != nil {
			return nil, fmt.Errorf("experiments: snapshot restore requires an in-process environment (remote env state is server-owned)")
		}
		if scn != nil {
			return nil, fmt.Errorf("experiments: scenarios require an in-process environment (remote env owns its own world)")
		}
		client, err := env.DialWith(spec.EnvAddr, spec.EnvDial)
		if err != nil {
			return nil, err
		}
		ms.closers = append(ms.closers, func() { client.Close() })
		client.SetObs(o.RPC)
		client.SetTrace(o.Run)
		if err := client.Reset(spec.StartX, 0, 0, vec.Deg(spec.StartYawDeg)); err != nil {
			return nil, fmt.Errorf("experiments: resetting remote env: %w", err)
		}
		e = client
	} else {
		sim, err := spec.newSim(m, scn)
		if err != nil {
			return nil, err
		}
		if img != nil {
			sim.RestoreState(img.Env)
		}
		ms.sim = sim
		e = sim
	}

	ms.log = &app.Log{Obs: o.App}
	loop, err := spec.newController(ms.log, scn)
	if err != nil {
		return nil, err
	}

	if img != nil {
		ms.mach, err = soc.RestoreMachine(spec.socConfig(), loop, &img.SoC)
		if err != nil {
			return nil, err
		}
	} else {
		ms.mach = soc.NewStateMachine(spec.socConfig(), loop)
	}
	ms.closers = append(ms.closers, ms.mach.Close)
	ms.mach.Bridge().SetObs(o.Bridge)
	ms.mach.Bridge().SetLog(o.Log)

	ms.sy, err = core.New(e, ms.mach, spec.coreConfig())
	if err != nil {
		return nil, err
	}
	if img != nil {
		if err := ms.sy.RestoreState(img.Core); err != nil {
			return nil, err
		}
		o.Run.FastForward(img.Meta.TraceSeq)
	}
	return ms, nil
}

// start launches the synchronizer (and, overlapped, its env worker) once.
func (ms *Mission) start() error {
	if ms.started {
		return nil
	}
	if err := ms.sy.Start(); err != nil {
		return err
	}
	ms.started = true
	return nil
}

// Step starts the mission on its first call and advances it by up to n
// synchronization quanta; n <= 0 steps nothing. done reports that the loop
// hit a terminal condition (time budget, completion) and will not advance
// further. The boundary after Step is a legal snapshot point.
func (ms *Mission) Step(n int) (done bool, err error) {
	if err := ms.start(); err != nil {
		return false, err
	}
	if n <= 0 {
		return false, nil
	}
	return ms.sy.StepQuanta(n)
}

// Sim returns the in-process environment simulator — the hook for sensor
// reseeds, fault injection, and swarm peer exchange between Steps. Nil for
// a remote environment.
func (ms *Mission) Sim() *env.Sim { return ms.sim }

// Capture snapshots the mission at the current quantum boundary. It is
// non-destructive: the mission can keep stepping afterwards.
func (ms *Mission) Capture() (*snapshot.Image, error) {
	if ms.sim == nil {
		return nil, errRemoteEnv
	}
	if err := ms.start(); err != nil {
		return nil, err
	}
	rawSpec, err := ms.spec.MetaSpec()
	if err != nil {
		return nil, err
	}
	meta := snapshot.Meta{Spec: rawSpec}
	if ms.spec.Obs != nil {
		meta.TraceSeq = ms.spec.Obs.Run.Seq()
	}
	return snapshot.Capture(ms.sy, ms.sim, ms.mach, meta)
}

// Finish runs the mission to its end and packages the outcome. Close must
// still be called to release the machine and transports.
func (ms *Mission) Finish() (*MissionOutcome, error) {
	if err := ms.start(); err != nil {
		return nil, err
	}
	if _, err := ms.sy.StepQuanta(0); err != nil {
		return nil, err
	}
	ms.finished = true
	res, err := ms.sy.Finish()
	if err != nil {
		return nil, err
	}
	return &MissionOutcome{Spec: ms.spec, Result: res, Inferences: ms.log.Records()}, nil
}

// Close releases the mission: it stops the overlap env worker of a mission
// that was started but not finished, then runs the closers. Safe to call
// more than once.
func (ms *Mission) Close() {
	if ms.started && !ms.finished {
		ms.finished = true
		_, _ = ms.sy.Finish()
	}
	for i := len(ms.closers) - 1; i >= 0; i-- {
		ms.closers[i]()
	}
	ms.closers = nil
}

// RunMission executes one co-simulated mission with trained controllers.
func RunMission(spec MissionSpec) (*MissionOutcome, error) {
	ms, err := NewMission(spec, nil, nil)
	if err != nil {
		return nil, err
	}
	defer ms.Close()
	return ms.Finish()
}

// Options scales experiment cost. Quick mode shortens missions and skips
// the most expensive sweep points, for tests and benchmarks; the rose-sweep
// tool runs full mode.
type Options struct {
	Quick bool
	// Workers bounds how many missions of a sweep run concurrently
	// (0 = GOMAXPROCS, 1 = serial). Each mission owns its simulator, SoC
	// machine, and inference workspace, so results are independent of the
	// worker count; outcomes are collected by sweep index, making report
	// lines byte-identical to a serial run.
	Workers int
	// Overlap is stamped onto every sweep spec (see core.OverlapMode);
	// the zero value keeps overlapped quantum execution on.
	Overlap core.OverlapMode
	// Obs is stamped onto every sweep spec; concurrent missions share the
	// suite (all instruments are atomic), so sweep-wide metrics aggregate
	// across workers. Nil keeps instrumentation off.
	Obs *obs.Suite
	// Precision is stamped onto every sweep spec: the inference datapath
	// (fp32 default, int8 for the quantized Gemmini mode).
	Precision dnn.Precision
	// Scenario is stamped onto every sweep spec: a deployment-scenario name
	// from the catalog ("" = calm baseline).
	Scenario string
}

// stamp applies sweep-wide options onto the specs before they run. With an
// observability suite attached, every spec additionally gets its own
// per-mission scope (mission_id plus map/hw/precision labels), so a sweep's
// or fleet's missions export distinguishable series while the suite-level
// aggregates still cover the whole run.
func (o Options) stamp(specs []MissionSpec) []MissionSpec {
	for i := range specs {
		specs[i].Overlap = o.Overlap
		specs[i].Precision = o.Precision
		if o.Scenario != "" {
			specs[i].Scenario = o.Scenario
		}
		scnLabel := specs[i].Scenario
		if scnLabel == "" {
			scnLabel = "calm"
		}
		specs[i].Obs = o.Obs.Mission("",
			[2]string{"map", specs[i].Map},
			[2]string{"hw", specs[i].HW.Name},
			[2]string{"precision", o.Precision.String()},
			[2]string{"scenario", scnLabel})
	}
	return specs
}

// runMissions executes the specs on the worker pool and returns the
// outcomes indexed exactly like specs.
func runMissions(specs []MissionSpec, workers int) ([]*MissionOutcome, error) {
	return pool(len(specs), workers, func(i int) (*MissionOutcome, error) { return RunMission(specs[i]) })
}

// pool runs job(0..n-1) on a bounded worker pool (workers <= 0 means
// GOMAXPROCS, 1 is serial) and returns the outcomes indexed like the jobs.
// Every job is attempted; the first error in index order (not completion
// order) is returned, keeping failure reporting deterministic too.
func pool(n, workers int, job func(i int) (*MissionOutcome, error)) ([]*MissionOutcome, error) {
	outs := make([]*MissionOutcome, n)
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outs[i], errs[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// maxSimSec returns the mission budget under the options.
func (o Options) maxSimSec() float64 {
	if o.Quick {
		return 30
	}
	return 60
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	return []string{
		"table3", "figure10", "figure11", "figure12",
		"figure13", "figure14", "figure15", "figure16",
		"ablation-sync", "ablation-queue", "ablation-policy",
		"warmstart", "pareto",
	}
}

// Run dispatches an experiment by ID.
func Run(id string, opt Options) (*Report, error) {
	switch id {
	case "table3":
		return Table3(opt)
	case "figure10":
		return Figure10(opt)
	case "figure11":
		return Figure11(opt)
	case "figure12":
		return Figure12(opt)
	case "figure13":
		return Figure13(opt)
	case "figure14":
		return Figure14(opt)
	case "figure15":
		return Figure15(opt)
	case "figure16":
		return Figure16(opt)
	case "ablation-sync":
		return AblationSync(opt)
	case "ablation-queue":
		return AblationQueue(opt)
	case "ablation-policy":
		return AblationPolicy(opt)
	case "warmstart":
		return Warmstart(opt)
	case "pareto":
		return Pareto(opt)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, IDs())
}
