// Package core implements RoSÉ's primary contribution: the synchronizer
// that co-simulates a robotics environment simulator and an RTL-level SoC
// simulation in lockstep (paper §3.4, Algorithm 1, Figure 5).
//
// Each synchronization step the synchronizer (1) polls the RTL side for I/O
// packets produced during the last quantum, (2) translates them into
// environment-simulator API calls and encodes the responses as data
// packets, (3) pushes the responses to the RoSÉ BRIDGE, and (4) releases
// one quantum of simulation to both sides: `airsim_steps` environment
// frames and `firesim_steps` SoC cycles, related by Equation 1:
//
//	airsim_steps / firesim_steps = soc_clock_freq / airsim_frame_freq
//
// The synchronization granularity (cycles per quantum) is the central
// fidelity/throughput trade-off the paper evaluates in Figures 15 and 16.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/env"
	"repro/internal/fprint"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/soc"
)

// RTL is the synchronizer's view of the SoC simulation side (FireSim +
// RoSÉ BRIDGE in the paper; soc.Machine in-process, or a TCP client for
// distributed deployments).
type RTL interface {
	// Step grants one quantum of cycles and runs the target.
	Step(cycles uint64) (uint64, error)
	// Push delivers host→SoC packets at a synchronization boundary.
	Push(pkts []packet.Packet) error
	// Pull drains SoC→host packets at a synchronization boundary.
	Pull() ([]packet.Packet, error)
	// Cycle returns the current simulated cycle.
	Cycle() uint64
	// Stats returns engine activity counters.
	Stats() soc.Stats
	// Done reports whether the target program exited (normally an error
	// for the endless control loops deployed here).
	Done() bool
}

// EnergyRTL is the optional energy-accounting view of an RTL, implemented
// by soc.Machine and the remote TCP client. The synchronizer type-asserts
// for it to sample per-quantum power and to fill Result.Energy — an RTL
// without it (or with accounting off) simply yields no energy numbers.
type EnergyRTL interface {
	EnergyBreakdown() soc.EnergyBreakdown
}

// OverlapMode selects whether the two simulators burn their quanta
// concurrently. The zero value is OverlapOn: in the paper the FPGA and the
// environment host always run in parallel between boundaries (Figure 5),
// so overlap is the faithful default and OverlapOff exists as the serial
// reference for parity testing and measurement.
type OverlapMode int

const (
	// OverlapOn executes env.StepFrames and rtl.Step concurrently and
	// joins before the boundary bookkeeping. Because data crosses only at
	// quantum boundaries, results are byte-identical to serial execution.
	OverlapOn OverlapMode = iota
	// OverlapOff executes the two steps back-to-back on one goroutine.
	OverlapOff
)

// Config parameterizes one co-simulation run.
type Config struct {
	// SoCClockHz is the modeled SoC clock (Equation 1). Defaults to 1 GHz.
	SoCClockHz float64
	// SyncCycles is the synchronization granularity in SoC cycles per
	// quantum. Defaults to ~16.7M (one 60 Hz frame at 1 GHz).
	SyncCycles uint64
	// MaxSimSeconds bounds the simulated mission duration.
	MaxSimSeconds float64
	// StopOnMissionComplete ends the run once the environment reports the
	// mission goal reached.
	StopOnMissionComplete bool
	// MaxCollisions aborts the run after this many collision episodes
	// (0 = unlimited).
	MaxCollisions int
	// RecordTrajectory stores per-quantum telemetry samples in the result.
	RecordTrajectory bool
	// ExchangeEveryN relaxes lockstep data exchange: packets cross the
	// bridge only every N quanta (1 = strict lockstep, the default).
	// Values > 1 model a loosely-coupled co-simulation and are used by the
	// ablation study to show why RoSÉ's per-quantum exchange matters.
	ExchangeEveryN int
	// Overlap selects concurrent (default) or serial quantum execution.
	Overlap OverlapMode
	// RecordFingerprints keeps the per-quantum fingerprint sequence in
	// Result.Fingerprints (one value per quantum, parallel to Trajectory).
	// The rolling fingerprint itself is always-on; this only controls
	// whether the full history is retained for logging/bisection.
	RecordFingerprints bool
	// Obs instruments the synchronizer's quantum phases (nil = disabled;
	// every hook then reduces to a nil check, keeping the overlapped hot
	// path allocation-free and within noise of its uninstrumented cost).
	Obs *obs.CoreObs
}

// DefaultConfig returns the evaluation defaults: 1 GHz SoC, one 60 Hz frame
// per synchronization, 120 simulated seconds.
func DefaultConfig() Config {
	return Config{
		SoCClockHz:            1e9,
		SyncCycles:            16_666_667,
		MaxSimSeconds:         120,
		StopOnMissionComplete: true,
		RecordTrajectory:      true,
		Overlap:               OverlapOn,
	}
}

// Result summarizes one co-simulated mission.
type Result struct {
	// MissionTimeSec is the simulated time at mission completion (or the
	// full run duration when not completed).
	MissionTimeSec float64
	Completed      bool
	Collisions     int
	// AvgVelocity is mean ground speed over the mission (m/s).
	AvgVelocity float64
	// Trajectory holds per-quantum telemetry when recording was enabled.
	Trajectory []env.Telemetry
	// SimSeconds is the total simulated time of the run.
	SimSeconds float64
	// Cycles is the total SoC cycles simulated; Syncs the quantum count.
	Cycles uint64
	Syncs  uint64
	// WallSeconds is the host wall-clock duration of the run, the basis of
	// the Figure 15 throughput measurement.
	WallSeconds float64
	// SoC holds the engine's activity counters (activity factor etc.).
	SoC soc.Stats
	// Energy is the SoC's end-of-mission energy breakdown (dynamic ledger
	// plus static integrated over all cycles), filled when the RTL exposes
	// one; HasEnergy distinguishes "accounting off / not exposed" from a
	// legitimately zero total.
	Energy    soc.EnergyBreakdown
	HasEnergy bool
	// Fingerprint is the mission's final determinism fingerprint: the
	// rolling fprint chain over every quantum's authoritative state (pose,
	// command, cycles, energy, engine counters). Two runs of the same
	// mission are state-identical iff their fingerprints match.
	Fingerprint uint64
	// Fingerprints is the per-quantum fingerprint history, recorded when
	// Config.RecordFingerprints is set (parallel to Trajectory).
	Fingerprints []uint64
}

// EnergyJoules returns the mission's total simulated energy in joules
// (0 when the RTL exposed no energy accounting).
func (r *Result) EnergyJoules() float64 {
	if !r.HasEnergy {
		return 0
	}
	return r.Energy.TotalJoules()
}

// ThroughputMHz returns the measured co-simulation rate in simulated MHz
// (simulated cycles per wall-clock microsecond), Figure 15's metric.
func (r *Result) ThroughputMHz() float64 {
	if r.WallSeconds <= 0 {
		return 0
	}
	return float64(r.Cycles) / r.WallSeconds / 1e6
}

// Synchronizer drives one environment/RTL pair in lockstep.
type Synchronizer struct {
	env env.Env
	rtl RTL
	cfg Config
	// batcher is non-nil when the environment can serve a run of sensor
	// requests in one call (the remote client pipelines them into a single
	// network round-trip).
	batcher env.SensorBatcher
	// fb is non-nil when the environment supports the zero-copy camera
	// path (FrameBytesInto).
	fb frameByter

	// camBuf is the reused quantization scratch for camera-frame replies
	// (CamFrame.Marshal copies the pixels, so the buffer is free again as
	// soon as serve returns).
	camBuf []byte
	// respBuf is the response-packet slice reused across exchanges.
	respBuf []packet.Packet
	// kindBuf is the reused sensor-request type list handed to the batcher.
	kindBuf []packet.Type
	// o is the optional phase instrumentation (nil when disabled).
	o *obs.CoreObs
	// er is the RTL's optional energy view; prevPJ/prevCycle anchor the
	// per-quantum power delta. Observational only — deliberately not part
	// of State: Start re-anchors them from the (possibly restored) RTL, so
	// power samples are correct after a restore without widening the
	// snapshot parity contract.
	er        EnergyRTL
	prevPJ    uint64
	prevCycle uint64

	// --- stepwise-run state (Start/StepQuanta/Finish) ---
	started        bool
	finished       bool
	startWall      time.Time
	framesPerCycle float64
	quantumSec     float64
	exchangeEvery  int
	stepCh         chan int
	quantumCh      chan envQuantum
	st             runState
	res            *Result
}

// runState is the synchronizer's progress through a mission — everything the
// quantum loop carries across iterations, and therefore exactly what a
// snapshot must capture to resume the loop elsewhere.
type runState struct {
	quantum   uint64 // absolute quantum index (drives ExchangeEveryN parity)
	frameDebt float64
	simT      float64
	speedSum  float64
	speedN    int
	stopped   bool // terminal condition hit; StepQuanta will not advance
	// fprint is the rolling determinism fingerprint (0 = not yet seeded;
	// the first fold starts from fprint.Init). Part of the snapshot State
	// so a restored mission continues the exact chain.
	fprint uint64
	// lastCmd is the most recent CmdVel actuation (forward, lateral, yaw
	// rate), folded into every quantum's fingerprint. Snapshot state for
	// the same reason.
	lastCmd [3]float64
}

// State is the serializable synchronizer image: loop progress plus the
// partially-accumulated Result (trajectory included, when recorded).
type State struct {
	Quantum    uint64
	FrameDebt  float64
	SimT       float64
	SpeedSum   float64
	SpeedN     int
	Syncs      uint64
	Collisions int
	Completed  bool
	Trajectory []env.Telemetry
	// Fingerprint/LastCmd continue the determinism-fingerprint chain across
	// a restore. Pre-fingerprint images decode them as zero: the chain then
	// restarts from the FNV basis (divergence detection still works within
	// the resumed run, just not across the capture boundary).
	Fingerprint  uint64
	LastCmd      [3]float64
	Fingerprints []uint64
}

// New builds a synchronizer. The environment's frame rate and the config's
// clock determine the frames-per-quantum ratio via Equation 1.
func New(e env.Env, rtl RTL, cfg Config) (*Synchronizer, error) {
	if e == nil || rtl == nil {
		return nil, fmt.Errorf("core: nil environment or RTL")
	}
	if cfg.SoCClockHz <= 0 {
		cfg.SoCClockHz = 1e9
	}
	if cfg.SyncCycles == 0 {
		return nil, fmt.Errorf("core: SyncCycles must be positive")
	}
	if cfg.MaxSimSeconds <= 0 {
		return nil, fmt.Errorf("core: MaxSimSeconds must be positive")
	}
	s := &Synchronizer{env: e, rtl: rtl, cfg: cfg, o: cfg.Obs}
	s.batcher, _ = e.(env.SensorBatcher)
	s.fb, _ = e.(frameByter)
	s.er, _ = rtl.(EnergyRTL)
	return s, nil
}

// frameByter is the allocation-free camera fast path: environments that can
// quantize the FPV frame directly into a caller buffer (env.Sim does) skip
// the fresh float32 image GetImage hands out.
type frameByter interface {
	FrameBytesInto(dst []byte) (pix []byte, w, h int)
}

// envQuantum is what the environment worker hands back per quantum: the
// step outcome plus the boundary telemetry sample, which depends only on
// environment state and therefore rides inside the overlapped region.
type envQuantum struct {
	tm      env.Telemetry
	stepErr error
	telErr  error
}

// Run executes Algorithm 1 until the mission completes, the time budget
// expires, or the collision limit is hit. It is the one-shot composition of
// the stepwise API: Start, StepQuanta to completion, Finish.
func (s *Synchronizer) Run() (*Result, error) {
	if err := s.Start(); err != nil {
		return nil, err
	}
	if _, err := s.StepQuanta(0); err != nil {
		s.teardown()
		return nil, err
	}
	return s.Finish()
}

// Start prepares the quantum loop: it configures the bridge quantum, derives
// the Equation 1 frame ratio, and (in overlapped mode) launches the
// environment worker. Call RestoreState before Start when resuming from a
// snapshot. After Start, drive the loop with StepQuanta and end with Finish.
func (s *Synchronizer) Start() error {
	if s.started {
		return fmt.Errorf("core: Start called twice")
	}
	cfg := s.cfg
	s.startWall = time.Now()
	if s.res == nil {
		s.res = &Result{}
	}

	// firesim_steps is configured once up front (Algorithm 1's
	// set_firesim_steps), informing the bridge control unit. On a restored
	// bridge this merely rewrites the same cyclesPerSync — no counters move.
	if err := s.rtl.Push([]packet.Packet{packet.U64(packet.SyncConfig, cfg.SyncCycles)}); err != nil {
		return fmt.Errorf("core: configuring bridge: %w", err)
	}

	s.framesPerCycle = s.env.FrameRate() / cfg.SoCClockHz
	s.quantumSec = float64(cfg.SyncCycles) / cfg.SoCClockHz
	if s.er != nil {
		// Anchor the per-quantum power delta at the RTL's current state so a
		// restored mission's first sample is its own quantum, not the whole
		// pre-snapshot history.
		s.prevPJ = s.er.EnergyBreakdown().TotalPJ()
		s.prevCycle = s.rtl.Cycle()
	}
	s.exchangeEvery = cfg.ExchangeEveryN
	if s.exchangeEvery < 1 {
		s.exchangeEvery = 1
	}
	if cfg.RecordTrajectory && s.res.Trajectory == nil {
		// Preallocate the trajectory from the known quantum count, capped so
		// pathological granularities cannot demand gigabytes up front.
		n := int(cfg.MaxSimSeconds/s.quantumSec) + 1
		if n > 1<<16 {
			n = 1 << 16
		}
		s.res.Trajectory = make([]env.Telemetry, 0, n)
	}

	// In overlapped mode a persistent worker owns the environment during
	// the quantum: it steps the granted frames and samples the boundary
	// telemetry while this goroutine runs the RTL quantum — the in-process
	// analogue of FireSim and AirSim burning their quanta in parallel on
	// separate hosts (Figure 5). The main goroutine touches the environment
	// only between quanta (serve/exchange), so there is no shared access.
	if cfg.Overlap == OverlapOn {
		s.stepCh = make(chan int)
		// Buffered so the worker can always complete its send and exit on
		// stepCh close, even when the loop exits early on an RTL error.
		s.quantumCh = make(chan envQuantum, 1)
		go func(stepCh chan int, quantumCh chan envQuantum) {
			for frames := range stepCh {
				var q envQuantum
				t0 := s.o.Start()
				if q.stepErr = s.env.StepFrames(frames); q.stepErr == nil {
					q.tm, q.telErr = s.env.Telemetry()
				}
				s.o.ObserveEnv(t0)
				quantumCh <- q
			}
		}(s.stepCh, s.quantumCh)
	}
	s.started = true
	return nil
}

// teardown stops the overlap worker. Safe to call more than once.
func (s *Synchronizer) teardown() {
	if s.stepCh != nil {
		close(s.stepCh)
		s.stepCh = nil
	}
}

// StepQuanta advances the mission by up to maxQuanta synchronization quanta
// (<= 0 means run until a terminal condition). done reports that the loop
// hit a terminal condition — time budget, mission completion with
// StopOnMissionComplete, or the collision limit — and further calls will not
// advance. The quantum boundary between calls is a legal snapshot point: the
// RTL budget is drained and no data is in flight outside the bridge queues.
func (s *Synchronizer) StepQuanta(maxQuanta int) (done bool, err error) {
	if !s.started {
		return false, fmt.Errorf("core: StepQuanta before Start")
	}
	if s.finished {
		return true, fmt.Errorf("core: StepQuanta after Finish")
	}
	cfg := s.cfg
	res := s.res
	for n := 0; maxQuanta <= 0 || n < maxQuanta; n++ {
		if s.st.stopped || s.st.simT >= cfg.MaxSimSeconds {
			s.st.stopped = true
			return true, nil
		}
		// BeginQuantum advances the run's trace sequence (stamped onto
		// every RPC below) and beats the watchdog heartbeat before any
		// network traffic, so a hung peer is attributed to the quantum
		// that hit it.
		q0 := s.o.BeginQuantum()
		if s.st.quantum%uint64(s.exchangeEvery) == 0 {
			// --- Poll the RTL side for I/O from the last quantum,
			// translate packets into environment API calls (Algorithm 1's
			// decode/call_airsim_api), and transmit the encoded responses
			// to the bridge. ---
			if err := s.exchange(); err != nil {
				s.o.Fault("exchange failed")
				return false, err
			}
			s.o.ObserveExchange(q0)
		}

		// --- Allocate tokens: advance both simulators one quantum
		// (Equation 1 ratio, with fractional frames accumulated). ---
		s.st.frameDebt += float64(cfg.SyncCycles) * s.framesPerCycle
		frames := int(s.st.frameDebt)
		s.st.frameDebt -= float64(frames)
		var tm env.Telemetry
		if cfg.Overlap == OverlapOn {
			s.stepCh <- frames
			t0 := s.o.Start()
			_, rtlErr := s.rtl.Step(cfg.SyncCycles)
			s.o.ObserveRTL(t0)
			t1 := s.o.Start()
			q := <-s.quantumCh
			s.o.ObserveStall(t1)
			// Surface errors in serial-report order: environment first.
			if q.stepErr != nil {
				s.o.Fault("env step failed")
				return false, fmt.Errorf("core: stepping environment: %w", q.stepErr)
			}
			if rtlErr != nil {
				s.o.Fault("rtl step failed")
				return false, fmt.Errorf("core: stepping RTL: %w", rtlErr)
			}
			if q.telErr != nil {
				s.o.Fault("telemetry failed")
				return false, fmt.Errorf("core: telemetry: %w", q.telErr)
			}
			tm = q.tm
		} else {
			t0 := s.o.Start()
			if err := s.env.StepFrames(frames); err != nil {
				s.o.Fault("env step failed")
				return false, fmt.Errorf("core: stepping environment: %w", err)
			}
			s.o.ObserveEnv(t0)
			t0 = s.o.Start()
			if _, err := s.rtl.Step(cfg.SyncCycles); err != nil {
				s.o.Fault("rtl step failed")
				return false, fmt.Errorf("core: stepping RTL: %w", err)
			}
			s.o.ObserveRTL(t0)
			var err error
			if tm, err = s.env.Telemetry(); err != nil {
				s.o.Fault("telemetry failed")
				return false, fmt.Errorf("core: telemetry: %w", err)
			}
		}
		// Sample the quantum's simulated power for the trace's power rail
		// and the black box. Observation only: skipped entirely when
		// observability is off, and never feeds back into the run.
		if s.er != nil && s.o != nil {
			b := s.er.EnergyBreakdown()
			totPJ := b.TotalPJ()
			cyc := s.rtl.Cycle()
			if dc := cyc - s.prevCycle; dc > 0 && totPJ >= s.prevPJ {
				mw := float64(totPJ-s.prevPJ) * 1e-12 * cfg.SoCClockHz / float64(dc) * 1e3
				s.o.ObservePower(totPJ, int64(mw))
			}
			s.prevPJ, s.prevCycle = totPJ, cyc
		}
		// Divergence detection runs unconditionally — observability must
		// never change run behaviour, and a NaN/Inf that escapes into the
		// controller poisons every later quantum silently.
		if !telemetryFinite(tm) {
			s.o.Fault("non-finite telemetry state")
			return false, fmt.Errorf("core: divergence: non-finite telemetry at t=%.3fs (pos %v vel %v yaw %v)",
				s.st.simT, tm.Pos, tm.Vel, tm.Yaw)
		}
		// Fold the quantum's authoritative end state into the rolling
		// determinism fingerprint. Always-on and unconditional: the chain is
		// the live analogue of the offline trajectory byte-compare, so it
		// must not depend on observability wiring. Every input is identical
		// local vs remote — telemetry is env-side, and the engine counters /
		// cycle / energy ride every RTLStepped reply for a remote RTL.
		fp := s.st.fprint
		if fp == 0 {
			fp = fprint.Init
		}
		fp = fprint.Fold(fp, s.st.quantum)
		fp = fprint.FoldF64(fp, tm.TimeSec)
		fp = fprint.Fold(fp, uint64(tm.Frame))
		fp = fprint.FoldF64(fp, tm.Pos.X)
		fp = fprint.FoldF64(fp, tm.Pos.Y)
		fp = fprint.FoldF64(fp, tm.Pos.Z)
		fp = fprint.FoldF64(fp, tm.Vel.X)
		fp = fprint.FoldF64(fp, tm.Vel.Y)
		fp = fprint.FoldF64(fp, tm.Vel.Z)
		fp = fprint.FoldF64(fp, tm.Yaw)
		fp = fprint.Fold(fp, uint64(tm.CollisionCount))
		fp = fprint.FoldBool(fp, tm.Collided)
		fp = fprint.FoldBool(fp, tm.MissionComplete)
		fp = fprint.FoldF64(fp, s.st.lastCmd[0])
		fp = fprint.FoldF64(fp, s.st.lastCmd[1])
		fp = fprint.FoldF64(fp, s.st.lastCmd[2])
		fp = fprint.Fold(fp, s.rtl.Cycle())
		fp = fprint.Fold(fp, s.rtl.Stats().Fingerprint)
		if s.er != nil {
			fp = fprint.Fold(fp, s.er.EnergyBreakdown().TotalPJ())
		}
		s.st.fprint = fp
		if cfg.RecordFingerprints {
			res.Fingerprints = append(res.Fingerprints, fp)
		}
		s.o.ObserveFingerprint(fp)
		s.st.simT += s.quantumSec
		s.st.quantum++
		res.Syncs++
		if s.o != nil {
			s.o.EndQuantum(q0, obs.TelemetrySample{
				TimeSec:         tm.TimeSec,
				Frame:           tm.Frame,
				PosX:            tm.Pos.X,
				PosY:            tm.Pos.Y,
				PosZ:            tm.Pos.Z,
				Yaw:             tm.Yaw,
				CollisionCount:  tm.CollisionCount,
				Collided:        tm.Collided,
				MissionComplete: tm.MissionComplete,
			})
		}

		// --- Bookkeeping. ---
		if cfg.RecordTrajectory {
			res.Trajectory = append(res.Trajectory, tm)
		}
		s.st.speedSum += tm.Vel.Norm()
		s.st.speedN++
		res.Collisions = tm.CollisionCount

		if s.rtl.Done() {
			s.o.Fault("target program exited")
			return false, fmt.Errorf("core: target program exited unexpectedly")
		}
		if tm.MissionComplete {
			res.Completed = true
			if cfg.StopOnMissionComplete {
				s.st.stopped = true
				return true, nil
			}
		}
		if cfg.MaxCollisions > 0 && tm.CollisionCount >= cfg.MaxCollisions {
			s.o.Fault("collision limit reached")
			s.st.stopped = true
			return true, nil
		}
	}
	return s.st.stopped || s.st.simT >= s.cfg.MaxSimSeconds, nil
}

// Finish stops the overlap worker and finalizes the Result. The synchronizer
// cannot be stepped afterwards.
func (s *Synchronizer) Finish() (*Result, error) {
	if !s.started {
		return nil, fmt.Errorf("core: Finish before Start")
	}
	if s.finished {
		return nil, fmt.Errorf("core: Finish called twice")
	}
	s.finished = true
	s.teardown()
	res := s.res
	res.SimSeconds = s.st.simT
	res.MissionTimeSec = s.st.simT
	res.Cycles = s.rtl.Cycle()
	res.WallSeconds = time.Since(s.startWall).Seconds()
	res.SoC = s.rtl.Stats()
	res.Fingerprint = s.st.fprint
	if s.er != nil {
		res.Energy = s.er.EnergyBreakdown()
		res.HasEnergy = res.Energy.TotalPJ() > 0
	}
	if s.st.speedN > 0 {
		res.AvgVelocity = s.st.speedSum / float64(s.st.speedN)
	}
	return res, nil
}

// SnapState captures the synchronizer's loop progress at a quantum boundary
// (i.e. between StepQuanta calls). The trajectory is deep-copied so the
// image stays valid while the live run continues.
func (s *Synchronizer) SnapState() State {
	st := State{
		Quantum:     s.st.quantum,
		FrameDebt:   s.st.frameDebt,
		SimT:        s.st.simT,
		SpeedSum:    s.st.speedSum,
		SpeedN:      s.st.speedN,
		Syncs:       s.res.Syncs,
		Collisions:  s.res.Collisions,
		Completed:   s.res.Completed,
		Fingerprint: s.st.fprint,
		LastCmd:     s.st.lastCmd,
	}
	if s.res.Trajectory != nil {
		st.Trajectory = append([]env.Telemetry(nil), s.res.Trajectory...)
	}
	if s.res.Fingerprints != nil {
		st.Fingerprints = append([]uint64(nil), s.res.Fingerprints...)
	}
	return st
}

// RestoreState installs captured loop progress. Call after New and before
// Start; the first StepQuanta then continues the captured mission exactly
// where it left off (ExchangeEveryN parity included, via the absolute
// quantum index).
func (s *Synchronizer) RestoreState(st State) error {
	if s.started {
		return fmt.Errorf("core: RestoreState after Start")
	}
	s.st = runState{
		quantum:   st.Quantum,
		frameDebt: st.FrameDebt,
		simT:      st.SimT,
		speedSum:  st.SpeedSum,
		speedN:    st.SpeedN,
		fprint:    st.Fingerprint,
		lastCmd:   st.LastCmd,
	}
	s.res = &Result{
		Syncs:      st.Syncs,
		Collisions: st.Collisions,
		Completed:  st.Completed,
	}
	if st.Trajectory != nil {
		s.res.Trajectory = append([]env.Telemetry(nil), st.Trajectory...)
	}
	if st.Fingerprints != nil {
		s.res.Fingerprints = append([]uint64(nil), st.Fingerprints...)
	}
	return nil
}

// exchange performs one synchronization boundary's data exchange: pull
// SoC-originated packets, translate them into environment API calls, and
// push the encoded responses to the bridge. Contiguous runs of sensor
// requests are delegated to the environment's SensorBatcher when it has
// one, collapsing a boundary's whole sensor traffic into a single network
// round-trip on remote deployments.
func (s *Synchronizer) exchange() error {
	pkts, err := s.rtl.Pull()
	if err != nil {
		return fmt.Errorf("core: pulling RTL I/O: %w", err)
	}
	resp := s.respBuf[:0]
	for i := 0; i < len(pkts); {
		if s.batcher != nil && isSensorReq(pkts[i].Type) {
			s.kindBuf = s.kindBuf[:0]
			j := i
			for j < len(pkts) && isSensorReq(pkts[j].Type) {
				s.kindBuf = append(s.kindBuf, pkts[j].Type)
				j++
			}
			batch, err := s.batcher.FetchSensors(s.kindBuf)
			if err != nil {
				return fmt.Errorf("core: batched sensor fetch: %w", err)
			}
			for _, b := range batch {
				// Batch payloads alias the batcher's arena and the bridge
				// queue stores references, so copy before pushing.
				resp = append(resp, packet.Packet{Type: b.Type, Payload: append([]byte(nil), b.Payload...)})
			}
			i = j
			continue
		}
		r, err := s.serve(pkts[i])
		if err != nil {
			return err
		}
		if r != nil {
			resp = append(resp, *r)
		}
		i++
	}
	s.respBuf = resp
	if err := s.rtl.Push(resp); err != nil {
		return fmt.Errorf("core: pushing env data: %w", err)
	}
	return nil
}

func isSensorReq(t packet.Type) bool {
	return t == packet.CamReq || t == packet.IMUReq || t == packet.DepthReq
}

// telemetryFinite reports whether the boundary telemetry holds only finite
// values — the synchronizer's divergence check.
func telemetryFinite(tm env.Telemetry) bool {
	for _, v := range [...]float64{
		tm.Pos.X, tm.Pos.Y, tm.Pos.Z,
		tm.Vel.X, tm.Vel.Y, tm.Vel.Z,
		tm.Yaw,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// serve translates one SoC-originated packet into an environment API call,
// returning the response packet to enqueue (nil for pure commands).
func (s *Synchronizer) serve(p packet.Packet) (*packet.Packet, error) {
	switch p.Type {
	case packet.CamReq:
		var w, h int
		if s.fb != nil {
			// Quantize straight into the reused scratch — no intermediate
			// float32 image.
			s.camBuf, w, h = s.fb.FrameBytesInto(s.camBuf)
		} else {
			img, err := s.env.GetImage()
			if err != nil {
				return nil, fmt.Errorf("core: env image: %w", err)
			}
			s.camBuf = img.BytesInto(s.camBuf)
			w, h = img.W, img.H
		}
		frame, err := packet.CamFrame{W: w, H: h, Pix: s.camBuf}.Marshal()
		if err != nil {
			return nil, err
		}
		return &frame, nil
	case packet.IMUReq:
		r, err := s.env.GetIMU()
		if err != nil {
			return nil, fmt.Errorf("core: env IMU: %w", err)
		}
		pkt := packet.IMU{
			Accel:   [3]float64{r.Accel.X, r.Accel.Y, r.Accel.Z},
			Gyro:    [3]float64{r.Gyro.X, r.Gyro.Y, r.Gyro.Z},
			RPY:     [3]float64{r.Roll, r.Pitch, r.Yaw},
			TimeSec: r.TimeSec,
		}.Marshal()
		return &pkt, nil
	case packet.DepthReq:
		d, err := s.env.GetDepth()
		if err != nil {
			return nil, fmt.Errorf("core: env depth: %w", err)
		}
		pkt := packet.Depth{Meters: d}.Marshal()
		return &pkt, nil
	case packet.CmdVel:
		cmd, err := packet.UnmarshalCmd(p)
		if err != nil {
			return nil, err
		}
		if err := s.env.SetVelocity(cmd.VForward, cmd.VLateral, cmd.YawRate); err != nil {
			return nil, fmt.Errorf("core: env actuation: %w", err)
		}
		s.st.lastCmd = [3]float64{cmd.VForward, cmd.VLateral, cmd.YawRate}
		return nil, nil
	default:
		return nil, fmt.Errorf("core: unexpected packet %v from SoC", p.Type)
	}
}

// ModeledThroughput predicts co-simulation throughput for an
// FPGA-accelerated deployment (Figure 15's model): the FPGA simulates at
// fpgaMHz between boundaries, and every synchronization costs a fixed host
// round-trip. Fine granularity amortizes the overhead poorly; coarse
// granularity approaches the FPGA's native rate.
func ModeledThroughput(syncCycles uint64, fpgaMHz, syncOverheadSec float64) float64 {
	if syncCycles == 0 || fpgaMHz <= 0 {
		return 0
	}
	simSec := float64(syncCycles) / (fpgaMHz * 1e6)
	return float64(syncCycles) / (simSec + syncOverheadSec) / 1e6
}
