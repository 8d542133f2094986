// Package env implements the robotics environment simulator — the Go
// stand-in for AirSim (Table 1: realtime UAV simulator with an RPC
// interface). It combines the world geometry, quadrotor physics, the
// software-in-the-loop flight controller, the camera renderer, and the
// sensor models, and advances everything in discrete frames exactly as
// AirSim does ("the minimum time period is a single frame, which corresponds
// to a physics and rendering step", §3.4.1).
//
// Two access paths mirror the paper's deployment options: the in-process
// *Sim used for single-machine co-simulation, and a TCP RPC server/client
// pair (rpc.go) for distributed deployments (Table 4).
package env

import (
	"fmt"

	"repro/internal/fc"
	"repro/internal/packet"
	"repro/internal/physics"
	"repro/internal/render"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/vec"
	"repro/internal/world"
)

// Env is the surface the synchronizer sees — the analogue of the AirSim RPC
// API: simulator control (stepping, reset), sensor reads, and actuation.
// Telemetry is simulator-level ground truth used only for logging and
// scoring; the modeled SoC never sees it (§3.4.2, simulation abstraction).
type Env interface {
	// StepFrames advances the simulation by n rendering/physics frames.
	// n == 0 is a no-op, and the synchronizer never issues it: a quantum
	// that is due no frame skips the call.
	StepFrames(n int) error
	// FrameRate returns the simulated frames per second.
	FrameRate() float64
	// GetImage renders and returns the FPV camera view at the current frame.
	GetImage() (*render.Image, error)
	// GetIMU returns the latest inertial reading.
	GetIMU() (sensor.IMUReading, error)
	// GetDepth returns the forward depth-sensor reading (metres).
	GetDepth() (float64, error)
	// SetVelocity installs new companion-computer targets: forward and
	// lateral velocity (m/s) and yaw rate (rad/s).
	SetVelocity(forward, lateral, yawRate float64) error
	// Reset respawns the vehicle at (x, y, z) with the given yaw (radians).
	Reset(x, y, z, yaw float64) error
	// Telemetry returns ground-truth state for logging.
	Telemetry() (Telemetry, error)
}

// SensorBatcher is an optional extension of Env: implementations can fetch
// a run of sensor readings (CamReq/IMUReq/DepthReq) in one call. The
// remote Client implements it by pipelining the whole run into a single
// network round-trip; the synchronizer uses it to serve a boundary's
// sensor traffic without per-request latency. Returned packets may alias
// implementation-owned buffers and are valid only until the next call.
type SensorBatcher interface {
	FetchSensors(reqs []packet.Type) ([]packet.Packet, error)
}

// Telemetry is ground-truth simulator state for logs and metrics (the CSV
// outputs of the paper's artifact).
type Telemetry struct {
	TimeSec         float64
	Frame           int64
	Pos             vec.Vec3
	Vel             vec.Vec3
	Yaw             float64
	DepthAhead      float64
	Collided        bool // currently in contact
	CollisionCount  int  // distinct collision episodes so far
	MissionComplete bool
}

// Config configures a simulation instance.
type Config struct {
	Map        *world.Map
	FrameHz    float64 // physics+render frame rate (AirSim-style 60–120 Hz)
	Substeps   int     // physics sub-steps per frame
	CameraW    int
	CameraH    int
	AltitudeM  float64 // altitude-hold target handed to the flight controller
	Seed       int64   // sensor noise / randomness seed
	StartX     float64
	StartY     float64
	StartYaw   float64 // radians
	MaxTiltRec bool    // unused placeholder for future wind models

	// Scenario, when non-nil, layers deployment-scenario machinery over the
	// baseline simulation: wind on the physics, degradation schedules on the
	// sensors, moving obstacles in the world. Nil (the calm scenario) leaves
	// every code path bit-identical to a build without scenario support.
	Scenario *scenario.Spec
	// Drone is this vehicle's index within a fleet; it offsets the
	// scenario's per-subsystem RNG streams so fleet members see
	// independent gusts and degradation schedules.
	Drone int
}

// DefaultConfig returns the evaluation defaults: 60 Hz frames, 64×48 FPV
// camera with 90° FOV, 1.5 m altitude hold.
func DefaultConfig(m *world.Map) Config {
	return Config{
		Map:       m,
		FrameHz:   60,
		Substeps:  4,
		CameraW:   64,
		CameraH:   48,
		AltitudeM: 1.5,
		Seed:      1,
	}
}

// Sim is the in-process environment simulator.
type Sim struct {
	cfg    Config
	cam    render.Camera
	quad   *physics.Quad
	ctl    *fc.Controller
	imu    *sensor.IMU
	depth  *sensor.Depth
	frame  int64
	simT   float64
	imgBuf *render.Image

	collided        bool
	collisionCount  int
	collisionCool   float64 // debounce timer
	missionComplete bool

	// Scenario machinery — all nil/empty when cfg.Scenario is inactive, in
	// which case the hot paths reduce to the baseline (and allocation-free)
	// code with only nil checks added.
	wind        *scenario.WindProcess
	degDepth    *sensor.Degrade
	degIMU      *sensor.Degrade
	scene       world.Scene // overlays obstacle walls and peer bodies on cfg.Map
	depthOut    float64     // cached degraded depth reading for the current frame
	hasDepthOut bool
}

// New creates a simulator from the config.
func New(cfg Config) (*Sim, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("env: config requires a map")
	}
	if cfg.FrameHz <= 0 {
		return nil, fmt.Errorf("env: frame rate must be positive, got %v", cfg.FrameHz)
	}
	if cfg.Substeps <= 0 {
		cfg.Substeps = 4
	}
	if cfg.CameraW <= 0 || cfg.CameraH <= 0 {
		return nil, fmt.Errorf("env: invalid camera size %dx%d", cfg.CameraW, cfg.CameraH)
	}
	s := &Sim{
		cfg:    cfg,
		cam:    render.DefaultCamera(cfg.CameraW, cfg.CameraH),
		imgBuf: render.NewImage(cfg.CameraW, cfg.CameraH),
	}
	if err := s.Reset(cfg.StartX, cfg.StartY, 0, cfg.StartYaw); err != nil {
		return nil, err
	}
	return s, nil
}

var _ Env = (*Sim)(nil)

// Reset implements Env.
func (s *Sim) Reset(x, y, z, yaw float64) error {
	p := physics.DefaultParams()
	s.quad = physics.NewQuad(p, vec.V3(x, y, z), yaw)
	s.ctl = fc.New(p, fc.DefaultGains())
	s.ctl.SetCommand(fc.Command{Altitude: s.cfg.AltitudeM})
	s.imu = sensor.NewIMU(sensor.DefaultIMUParams(), s.cfg.Seed)
	s.depth = sensor.NewDepth(60, 0.02, s.cfg.Seed+1)
	s.frame = 0
	s.simT = 0
	s.collided = false
	s.collisionCount = 0
	s.collisionCool = 0
	s.missionComplete = false
	s.initScenario()
	return nil
}

// initScenario (re)builds the scenario runtime from the config: fresh
// processes with their per-subsystem stream seeds, and the dynamic-scene
// overlay when obstacles exist. Peers installed via SetPeers survive a
// Reset only through the next SetPeers call.
func (s *Sim) initScenario() {
	s.wind, s.degDepth, s.degIMU = nil, nil, nil
	s.scene = world.Scene{Map: s.cfg.Map}
	s.depthOut, s.hasDepthOut = 0, false
	spec := s.cfg.Scenario
	if spec == nil {
		return
	}
	if spec.Wind != nil {
		s.wind = scenario.NewWindProcess(*spec.Wind, spec.WindSeed(s.cfg.Drone))
		s.quad.Wind = s.wind.Wind()
	}
	if spec.DepthDegrade.Enabled() {
		s.degDepth = sensor.NewDegrade(spec.DepthDegrade, spec.DepthDegradeSeed(s.cfg.Drone))
	}
	if spec.IMUDegrade.Enabled() {
		s.degIMU = sensor.NewDegrade(spec.IMUDegrade, spec.IMUDegradeSeed(s.cfg.Drone))
	}
	if len(spec.Obstacles) > 0 {
		s.scene.Walls = make([]world.Wall, len(spec.Obstacles))
		s.updateObstacles()
	}
}

// updateObstacles re-poses the moving obstacles for the current simulation
// time. Obstacle pose is a pure function of simT, so a restore rebuilds it
// from the clock alone — there is no obstacle state to snapshot.
func (s *Sim) updateObstacles() {
	spec := s.cfg.Scenario
	if spec == nil || len(spec.Obstacles) == 0 {
		return
	}
	for i := range spec.Obstacles {
		s.scene.Walls[i] = spec.Obstacles[i].WallAt(s.simT, s.cfg.Map)
	}
}

// sceneActive reports whether the dynamic-scene overlay carries content;
// when false, sensing and collision run against the bare map exactly as in
// a scenario-free build.
func (s *Sim) sceneActive() bool {
	return len(s.scene.Walls) > 0 || len(s.scene.Bodies) > 0
}

// SetPeers installs the other fleet members' collision bodies for the next
// quantum (multi-drone missions). The slice is copied; pass nil to clear.
// Call only at quantum boundaries — mid-quantum swaps would break replay
// determinism.
func (s *Sim) SetPeers(peers []world.Body) {
	s.scene.Bodies = append(s.scene.Bodies[:0], peers...)
}

// BodyState returns this vehicle as a collision body for its fleet peers.
func (s *Sim) BodyState() world.Body {
	return world.Body{Pos: s.quad.State.Pos, Radius: s.quad.Params.Radius, Texture: world.TexDrone}
}

// FrameRate implements Env.
func (s *Sim) FrameRate() float64 { return s.cfg.FrameHz }

// StepFrames implements Env: n physics+render frames, each of
// cfg.Substeps physics sub-steps with flight-controller updates.
func (s *Sim) StepFrames(n int) error {
	if n < 0 {
		return fmt.Errorf("env: cannot step %d frames", n)
	}
	frameDT := 1 / s.cfg.FrameHz
	subDT := frameDT / float64(s.cfg.Substeps)
	for i := 0; i < n; i++ {
		if s.wind != nil {
			s.quad.Wind = s.wind.Step(frameDT)
		}
		if len(s.scene.Walls) > 0 {
			s.updateObstacles()
		}
		for j := 0; j < s.cfg.Substeps; j++ {
			motors := s.ctl.Update(s.quad.State, subDT)
			s.quad.Step(subDT, motors)
			s.resolveCollisions()
		}
		imuGain := 1.0
		if s.degIMU != nil {
			s.degIMU.Tick(frameDT)
			imuGain = s.degIMU.Gain()
		}
		s.imu.SampleGain(s.quad.State, frameDT, s.simT, imuGain)
		if s.degDepth != nil {
			// Degraded depth is a per-frame pipeline (sample → burst gain →
			// latency line → dropout hold); GetDepth then serves the cached
			// frame reading instead of drawing per call.
			s.degDepth.Tick(frameDT)
			fresh := s.depth.SampleGain(s.depthTrue(s.depth.MaxRange), s.degDepth.Gain())
			s.depthOut = s.degDepth.FilterDepth(fresh)
			s.hasDepthOut = true
		}
		s.frame++
		s.simT += frameDT
		if s.collisionCool > 0 {
			s.collisionCool -= frameDT
		}
		if s.quad.State.Pos.X >= s.cfg.Map.GoalX {
			s.missionComplete = true
		}
	}
	return nil
}

// resolveCollisions applies an AirSim-like contact response: push the
// vehicle out of the surface, cancel the into-surface velocity component,
// and damp the tangential one. Distinct contact episodes are counted with a
// 0.5 s debounce; the paper reports collisions and subsequent recovery
// rather than terminating the run.
func (s *Sim) resolveCollisions() {
	var c world.CollisionInfo
	if s.sceneActive() {
		c = s.scene.Collide(s.quad.State.Pos, s.quad.Params.Radius)
	} else {
		c = s.cfg.Map.Collide(s.quad.State.Pos, s.quad.Params.Radius)
	}
	if !c.Collided || (c.Wall < 0 && c.Body < 0) {
		// Floor contact is owned by the physics model (landing gear);
		// only wall strikes are collision events here.
		s.collided = false
		return
	}
	st := &s.quad.State
	st.Pos = st.Pos.Add(c.Normal.Scale(c.Depth + 1e-4))
	vn := st.Vel.Dot(c.Normal)
	if vn < 0 {
		// Remove normal component, damp tangential: a scraping impact.
		st.Vel = st.Vel.Sub(c.Normal.Scale(vn)).Scale(0.4)
	}
	st.Omega = st.Omega.Scale(0.3)
	if !s.collided && s.collisionCool <= 0 {
		s.collisionCount++
		s.collisionCool = 0.5
		s.ctl.Reset()
	}
	s.collided = true
}

// GetImage implements Env.
func (s *Sim) GetImage() (*render.Image, error) {
	s.renderFrame()
	out := render.NewImage(s.imgBuf.W, s.imgBuf.H)
	copy(out.Pix, s.imgBuf.Pix)
	return out, nil
}

// renderFrame draws the FPV view into the scratch image, through the scene
// overlay when it carries content.
func (s *Sim) renderFrame() {
	pose := render.Pose{Pos: s.quad.State.Pos, Ori: s.quad.State.Ori}
	if s.sceneActive() {
		s.cam.RenderSceneInto(&s.scene, pose, s.imgBuf)
		return
	}
	s.cam.RenderInto(s.cfg.Map, pose, s.imgBuf)
}

// FrameBytesInto renders the FPV view and quantizes it to 8-bit grayscale
// directly into dst (grown as needed), skipping the fresh float32 image
// GetImage hands out. Transmit paths — the RPC server and the in-process
// synchronizer — use it to keep the per-frame camera path allocation-free.
func (s *Sim) FrameBytesInto(dst []byte) (pix []byte, w, h int) {
	s.renderFrame()
	return s.imgBuf.BytesInto(dst), s.imgBuf.W, s.imgBuf.H
}

// CameraSize returns the camera resolution.
func (s *Sim) CameraSize() (w, h int) { return s.cfg.CameraW, s.cfg.CameraH }

// GetIMU implements Env.
func (s *Sim) GetIMU() (sensor.IMUReading, error) { return s.imu.Last(), nil }

// InjectImpulse applies an instantaneous velocity change to the vehicle — a
// seeded fault hook (bird strike, actuator glitch) for divergence-
// localization tests: injected at a known quantum boundary, the determinism
// fingerprint chain must diverge exactly there.
func (s *Sim) InjectImpulse(dv vec.Vec3) {
	s.quad.State.Vel = s.quad.State.Vel.Add(dv)
}

// GetDepth implements Env. With a degradation schedule active it serves the
// cached per-frame pipeline output; otherwise it samples fresh per call as
// the baseline always has.
func (s *Sim) GetDepth() (float64, error) {
	if s.degDepth != nil && s.hasDepthOut {
		return s.depthOut, nil
	}
	return s.depth.Sample(s.depthTrue(s.depth.MaxRange)), nil
}

// depthTrue returns the ground-truth forward distance, through the scene
// overlay when it carries content.
func (s *Sim) depthTrue(maxDist float64) float64 {
	yaw := s.quad.State.Ori.Yaw()
	if s.sceneActive() {
		return s.scene.DepthAhead(s.quad.State.Pos, yaw, maxDist)
	}
	return s.cfg.Map.DepthAhead(s.quad.State.Pos, yaw, maxDist)
}

// SetVelocity implements Env: the companion computer's intermediate-level
// targets, tracked by the flight controller hierarchy.
func (s *Sim) SetVelocity(forward, lateral, yawRate float64) error {
	s.ctl.SetCommand(fc.Command{
		VForward: forward,
		VLateral: lateral,
		YawRate:  yawRate,
		Altitude: s.cfg.AltitudeM,
	})
	return nil
}

// Telemetry implements Env.
func (s *Sim) Telemetry() (Telemetry, error) {
	yaw := s.quad.State.Ori.Yaw()
	return Telemetry{
		TimeSec:         s.simT,
		Frame:           s.frame,
		Pos:             s.quad.State.Pos,
		Vel:             s.quad.State.Vel,
		Yaw:             yaw,
		DepthAhead:      s.depthTrue(60),
		Collided:        s.collided,
		CollisionCount:  s.collisionCount,
		MissionComplete: s.missionComplete,
	}, nil
}

// Map returns the simulated environment's map (simulator-level access; not
// part of the Env surface the SoC-side ever touches).
func (s *Sim) Map() *world.Map { return s.cfg.Map }
