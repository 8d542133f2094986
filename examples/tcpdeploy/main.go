// tcpdeploy demonstrates the distributed deployment of Table 4: the
// environment simulator and the RTL simulation each behind their own TCP
// endpoint (here both on localhost), with the synchronizer speaking the
// RoSÉ packet protocol to both — exactly the topology of the paper's
// on-premise AirSim-desktop + FireSim-server setup.
//
// With the default config the two remote simulators burn each quantum
// concurrently: the environment client's step request is pipelined (its
// ack deferred), so the env host simulates while the synchronizer drives
// the RTL quantum, and each boundary's sensor traffic crosses in a single
// batched round-trip (see DESIGN.md §4.7).
//
// Observability runs exactly as it would across real hosts: the
// synchronizer and the environment server each own a separate suite (their
// own tracer ring and clock), every RPC carries the run's trace context on
// the wire (DESIGN.md §6.1), and after the mission the two traces are
// merged into one Chrome trace with per-host process lanes — env-server
// spans nested under the rose-sim quantum that issued them.
//
//	go run ./examples/tcpdeploy
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/app"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/env"
	"repro/internal/gemmini"
	"repro/internal/obs"
	"repro/internal/ort"
	"repro/internal/soc"
	"repro/internal/telemetry"
	"repro/internal/world"
)

func main() {
	var (
		dialTO  = flag.Duration("dial-timeout", 10*time.Second, "TCP connect timeout for both endpoints")
		rpcTO   = flag.Duration("rpc-timeout", 30*time.Second, "per-RPC I/O deadline (0 = none)")
		retries = flag.Int("rpc-retries", 3, "reconnect budget per failed RPC; >0 enables transparent reconnect with idempotent replay")
	)
	flag.Parse()
	dial := env.DialOptions{
		DialTimeout: *dialTO,
		RPCTimeout:  *rpcTO,
		MaxRetries:  *retries,
		CRCPayload:  *retries > 0,
	}

	model, err := dnn.Trained("ResNet14")
	if err != nil {
		log.Fatal(err)
	}

	// Two suites, as in a real deployment: the synchronizer host and the
	// environment host each keep their own registry, tracer, and logger.
	// Only the trace context crosses the wire.
	simSuite := obs.New(-1)
	simSuite.Host = "rose-sim"
	defer func() { simSuite.RecoverPanic(recover()) }()
	envSuite := obs.New(-1)
	envSuite.Host = "rose-env-server"

	// --- "GPU host": environment simulator behind TCP ---
	sim, err := env.New(env.DefaultConfig(world.Tunnel()))
	if err != nil {
		log.Fatal(err)
	}
	envSrv, err := env.NewServer(sim, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	envSrv.SetObs(envSuite.EnvServer)
	envSrv.SetLog(envSuite.Log)
	go envSrv.Serve()
	defer envSrv.Close()

	// --- "FPGA host": simulated SoC behind TCP ---
	sess, err := ort.NewSession(model.Net, gemmini.Default())
	if err != nil {
		log.Fatal(err)
	}
	machine := soc.NewStateMachine(config.A.SoCConfig(),
		app.NewStaticLoop(sess, app.DefaultControlParams(3), nil))
	defer machine.Close()
	rtlSrv, err := soc.NewServer(machine, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// The FPGA host keeps no suite of its own in this demo; its server's
	// accept failures and checksum drops land in the synchronizer's log.
	rtlSrv.SetLog(simSuite.Log)
	go rtlSrv.Serve()
	defer rtlSrv.Close()

	// --- Synchronizer host: dial both and run lockstep over the wire.
	// Both links are resilient: a dropped connection or stalled RPC is
	// retried with capped exponential backoff and the unanswered requests
	// replayed (the servers dedup them), so transient network faults never
	// corrupt the mission. ---
	envClient, err := env.DialWith(envSrv.Addr(), dial)
	if err != nil {
		log.Fatal(err)
	}
	defer envClient.Close()
	envClient.SetObs(simSuite.RPC)
	envClient.SetTrace(simSuite.Run) // stamp every RPC with the run's context
	rtlClient, err := soc.DialRTLWith(rtlSrv.Addr(), soc.DialOptions(dial))
	if err != nil {
		log.Fatal(err)
	}
	defer rtlClient.Close()
	rtlClient.SetTrace(simSuite.Run)

	fmt.Printf("environment at %s, RTL simulation at %s (run %s)\n",
		envSrv.Addr(), rtlSrv.Addr(), simSuite.Run.RunIDHex())
	ccfg := core.DefaultConfig()
	ccfg.Obs = simSuite.Core
	sync, err := core.New(envClient, rtlClient, ccfg)
	if err != nil {
		log.Fatal(err)
	}
	// A stalled quantum (e.g. the env host dying mid-run) trips the
	// watchdog and dumps the flight recorder to blackbox.json.
	simSuite.Recorder.StartWatchdog(10 * time.Second)
	res, err := sync.Run()
	simSuite.Recorder.StopWatchdog()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed mission: complete=%v in %.2f s, %d collisions, %.1f simulated MHz over TCP\n",
		res.Completed, res.MissionTimeSec, res.Collisions, res.ThroughputMHz())
	fmt.Println()
	fmt.Print(telemetry.HealthStrip(simSuite.Summary()))

	// Merge the two hosts' traces exactly as `rose-sim -merge-sim/-merge-env`
	// would across machines: export each suite's trace with its run
	// metadata, estimate the clock offset from matched RPC activity, and
	// write one Chrome trace with both process lanes.
	if err := writeMergedTrace(simSuite, envSuite, "merged_trace.json"); err != nil {
		log.Fatal(err)
	}
}

func writeMergedTrace(simSuite, envSuite *obs.Suite, path string) error {
	var simBuf, envBuf bytes.Buffer
	if err := simSuite.WriteTrace(&simBuf, simSuite.Host); err != nil {
		return err
	}
	if err := envSuite.WriteTrace(&envBuf, envSuite.Host); err != nil {
		return err
	}
	client, err := obs.ParseHostTrace(simBuf.Bytes())
	if err != nil {
		return err
	}
	server, err := obs.ParseHostTrace(envBuf.Bytes())
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteMergedTrace(f, client, server); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	offset, samples := obs.EstimateClockOffset(client, server)
	fmt.Printf("\nmerged trace (%d sim + %d env spans, clock offset %s from %d quanta) written to %s\n",
		len(client.Spans), len(server.Spans), offset.Round(time.Microsecond), samples, path)
	return nil
}
