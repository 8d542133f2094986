package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/gemmini"
	"repro/internal/obs"
	"repro/internal/ort"
	"repro/internal/soc"
	"repro/internal/vec"
	"repro/internal/world"
)

// tcpTopology is the Table 4 deployment as examples/tcpdeploy builds it: an
// environment server and an RTL server on loopback listeners, and the
// synchronizer dialing both over resilient links with CRC payloads, each
// side with its own observability suite and trace context on the wire.
//
// Flights run one after another over the same servers. Before each flight
// the remote SoC is restored to its pristine image and the RTL link is
// dialed afresh: soc.RemoteRTL caches the status its RTLStatus replies
// gob-decode into a reused struct, and gob leaves fields that are zero on
// the wire at their old values, so a link that saw a longer flight would
// report stale counters after the restore.
type tcpTopology struct {
	model    *dnn.TrainedModel
	dial     env.DialOptions
	simSuite *obs.Suite
	envSuite *obs.Suite

	envSrv    *env.Server
	rtlSrv    *soc.Server
	pristine  *soc.SnapState
	envClient *env.Client
	rtl       *soc.RemoteRTL
	serving   sync.WaitGroup

	// log is the server-side inference log of the current flight; the
	// restorer replaces it on the RTL server's goroutine.
	mu  sync.Mutex
	log *app.Log

	// io counts traffic on every connection (traced runs only).
	io *ioCounter
	// dials counts link dials requested by the benchmark, so dials the
	// links make on their own are counted as retries.
	dials int
}

// newTCPTopology starts both servers and opens both links; the caller has
// trained the model. counting wraps every connection in a counter; sp, when
// non-nil, times the map generation.
func newTCPTopology(seed int64, counting bool, sp *tracer) (t *tcpTopology, err error) {
	model, err := dnn.Trained("ResNet6")
	if err != nil {
		return nil, err
	}
	t = &tcpTopology{
		model: model,
		dial: env.DialOptions{
			DialTimeout: 10 * time.Second,
			RPCTimeout:  30 * time.Second,
			MaxRetries:  3,
			CRCPayload:  true,
		},
		simSuite: obs.New(-1),
		envSuite: obs.New(-1),
	}
	t.simSuite.Host = "rose-sim"
	t.envSuite.Host = "rose-env-server"
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if counting {
		t.io = &ioCounter{}
		t.dial.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			t.io.dials.Add(1)
			return &countingConn{Conn: c, n: t.io, bytes: true}, nil
		}
	}
	spec := tcpSpec(seed, 0)

	// Environment host.
	var m *world.Map
	sp.setup(opMap, func() { m = world.ByName(spec.Map) })
	if m == nil {
		return nil, fmt.Errorf("unknown map %q", spec.Map)
	}
	ecfg := env.DefaultConfig(m)
	ecfg.StartX = spec.StartX
	ecfg.Seed = spec.Seed + 1 // the in-process mission's sensor seed
	sim, err := env.New(ecfg)
	if err != nil {
		return nil, err
	}
	eln, err := t.listen()
	if err != nil {
		return nil, err
	}
	t.envSrv = env.NewServerOn(sim, eln)
	t.envSrv.SetObs(t.envSuite.EnvServer)
	t.envSrv.SetLog(t.envSuite.Log)
	t.serve(t.envSrv.Serve)

	// RTL host. The machine runs the controller experiments builds for the
	// same spec, so a remote flight is comparable to the in-process one.
	loop := t.newController()
	mach := soc.NewStateMachine(spec.HW.SoCConfig(), loop)
	t.pristine, err = mach.SnapState()
	if err != nil {
		mach.Close()
		return nil, fmt.Errorf("capturing the pristine SoC: %w", err)
	}
	rln, err := t.listen()
	if err != nil {
		mach.Close()
		return nil, err
	}
	t.rtlSrv = soc.NewServerOn(mach, rln)
	t.rtlSrv.SetRestorer(func() (soc.Config, soc.StateProgram, error) {
		return spec.HW.SoCConfig(), t.newController(), nil
	})
	t.serve(t.rtlSrv.Serve)

	// Synchronizer host.
	t.dials++
	t.envClient, err = env.DialWith(t.envSrv.Addr(), t.dial)
	if err != nil {
		return nil, err
	}
	t.envClient.SetObs(t.simSuite.RPC)
	t.envClient.SetTrace(t.simSuite.Run)
	if err := t.dialRTL(); err != nil {
		return nil, err
	}
	return t, nil
}

// newController builds the flight controller experiments uses for a
// ResNet6 fp32 mission and makes its log the current one.
func (t *tcpTopology) newController() *app.StaticLoop {
	sess, err := ort.NewSessionP(t.model.Net, gemmini.Default(), dnn.PrecisionFP32)
	if err != nil {
		// The model validated when it was trained.
		panic(err)
	}
	ctrl := app.DefaultControlParams(3)
	ctrl.Temperature = app.TemperatureFor("ResNet6")
	log := &app.Log{}
	t.mu.Lock()
	t.log = log
	t.mu.Unlock()
	return app.NewStaticLoop(sess, ctrl, log)
}

func (t *tcpTopology) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if t.io != nil {
		return &countingListener{Listener: ln, n: t.io}, nil
	}
	return ln, nil
}

func (t *tcpTopology) serve(fn func() error) {
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		_ = fn() // returns net.ErrClosed once close() shuts the listener
	}()
}

func (t *tcpTopology) dialRTL() error {
	t.dials++
	rtl, err := soc.DialRTLWith(t.rtlSrv.Addr(), soc.DialOptions(t.dial))
	if err != nil {
		return err
	}
	rtl.SetTrace(t.simSuite.Run)
	t.rtl = rtl
	return nil
}

// fly resets both servers for the spec and flies it over the wire. With a
// tracer the synchronizer sees wrapped clients, every quantum is a span,
// the camera frames served are kept in frames, and agg gets the flight's
// wire traffic.
func (t *tcpTopology) fly(spec experiments.MissionSpec, tr *tracer, frames *frameLog, agg *layerAgg) (*experiments.MissionOutcome, error) {
	if err := t.rtl.Restore(t.pristine); err != nil {
		return nil, fmt.Errorf("restoring the remote SoC: %w", err)
	}
	t.rtl.Close()
	t.rtl = nil
	if err := t.dialRTL(); err != nil {
		return nil, err
	}
	if err := t.envClient.Reset(spec.StartX, 0, 0, vec.Deg(spec.StartYawDeg)); err != nil {
		return nil, fmt.Errorf("resetting the remote env: %w", err)
	}
	ccfg := core.DefaultConfig()
	ccfg.SyncCycles = spec.SyncCycles
	ccfg.MaxSimSeconds = spec.MaxSimSec
	ccfg.Overlap = spec.Overlap
	ccfg.Obs = t.simSuite.Core
	var (
		e   env.Env  = t.envClient
		rtl core.RTL = t.rtl
	)
	if tr != nil {
		e, rtl = wrapEnv(e, tr, frames), wrapRTL(rtl, tr)
	}
	sy, err := core.New(e, rtl, ccfg)
	if err != nil {
		return nil, err
	}
	var calls, bytes, events int64
	if t.io != nil {
		calls, bytes, events = t.io.calls.Load(), t.io.bytes.Load(), int64(t.traceEvents())
	}
	res, err := stepMission(sy, tr)
	if err != nil {
		return nil, err
	}
	if t.io != nil && agg != nil {
		agg.ioCalls += t.io.calls.Load() - calls
		agg.ioBytes += t.io.bytes.Load() - bytes
		agg.traceEvents += int64(t.traceEvents()) - events
	}
	t.mu.Lock()
	log := t.log
	t.mu.Unlock()
	return &experiments.MissionOutcome{Spec: spec, Result: res, Inferences: log.Records()}, nil
}

// traceEvents is the number of trace events both suites have recorded.
func (t *tcpTopology) traceEvents() uint64 {
	return uint64(t.simSuite.Tracer.Len()) + t.simSuite.Tracer.Dropped() +
		uint64(t.envSuite.Tracer.Len()) + t.envSuite.Tracer.Dropped()
}

// close tears the topology down: links first, then the servers, and waits
// for both accept loops to return.
func (t *tcpTopology) close() {
	if t.rtl != nil {
		t.rtl.Close()
	}
	if t.envClient != nil {
		t.envClient.Close()
	}
	if t.rtlSrv != nil {
		t.rtlSrv.Close()
	}
	if t.envSrv != nil {
		t.envSrv.Close()
	}
	t.serving.Wait()
}

// ioCounter totals Read and Write calls on both ends of every connection,
// the bytes that cross the wire (counted once, at the client end), and the
// client's dials.
type ioCounter struct {
	calls, bytes, dials atomic.Int64
}

type countingConn struct {
	net.Conn
	n     *ioCounter
	bytes bool // the client end counts the bytes
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.calls.Add(1)
	if c.bytes {
		c.n.bytes.Add(int64(k))
	}
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.calls.Add(1)
	if c.bytes {
		c.n.bytes.Add(int64(k))
	}
	return k, err
}

type countingListener struct {
	net.Listener
	n *ioCounter
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}
