// Command rose-sim runs one closed-loop co-simulated mission and writes the
// synchronizer's CSV logs — the single-run entry point of the RoSÉ flow
// (paper Appendix A.5).
//
// Example:
//
//	rose-sim -map s-shape -model ResNet14 -hw A -v 9 -out logs/
//
// It doubles as the trace-merge tool for distributed runs: given the
// introspection URLs of both hosts it fetches /trace.json from each and
// writes one merged Chrome trace with per-host process lanes and
// clock-offset correction:
//
//	rose-sim -merge-sim http://simhost:9100 -merge-env http://envhost:9100 -merge-out merged.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

func main() {
	var (
		mapName  = flag.String("map", "tunnel", "environment: tunnel or s-shape")
		scenario = flag.String("scenario", "", "scenario catalog entry as family:seed (calm, wind, degraded, squall, storm, swarm); empty = no disturbances")
		model    = flag.String("model", "ResNet14", "controller DNN variant (empty with -scenario = scripted patrol controller)")
		small    = flag.String("dynamic-small", "", "small DNN for the dynamic runtime (empty = static)")
		hwName   = flag.String("hw", "A", "hardware config: A (BOOM+Gemmini), B (Rocket+Gemmini), C (BOOM)")
		vfwd     = flag.Float64("v", 3, "forward velocity target (m/s)")
		kernel   = flag.String("gemm-kernel", "", "force the GEMM microkernel: noasm, sse, avx2 (empty = auto-detect; env ROSE_GEMM_KERNEL)")
		prec     = flag.String("precision", "fp32", "inference datapath: fp32 or int8 (quantized Gemmini mode)")
		yawDeg   = flag.Float64("yaw", 0, "initial heading (degrees)")
		sync     = flag.Uint64("sync", 16_666_667, "synchronization granularity (SoC cycles)")
		maxSec   = flag.Float64("maxtime", 60, "simulated time budget (s)")
		seed     = flag.Int64("seed", 0, "environment noise seed")
		serial   = flag.Bool("serial", false, "disable overlapped quantum execution (serial reference)")
		perClass = flag.Int("train-per-class", 200, "training samples per class for the model registry")
		outDir   = flag.String("out", "", "directory for CSV logs (empty = no files)")
		plot     = flag.Bool("plot", true, "print an ASCII trajectory plot")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto)")
		metrics  = flag.String("metrics", "", "serve live metrics on this address (e.g. :9100)")
		logLevel = flag.String("log-level", "info", "structured log level: debug, info, warn, error, off")
		logFile  = flag.String("log-file", "", "stream structured events as NDJSON to this file (\"-\" = stderr text)")
		watchdog = flag.Duration("watchdog", 0, "quantum watchdog deadline (0 = off); a stalled quantum dumps the black box")
		blackbox = flag.String("blackbox", obs.DefaultBlackboxPath, "flight-recorder dump path (\"\" disables file dumps)")
		snapOut  = flag.String("snapshot-out", "", "run the mission prefix and write a rose-snap/1 image to this path (needs -snapshot-at)")
		snapAt   = flag.Uint64("snapshot-at", 0, "capture quantum for -snapshot-out (synchronization quanta from mission start)")
		restore  = flag.String("restore", "", "resume a mission from a rose-snap/1 image (mission flags come from the image)")
		envAddr  = flag.String("env-addr", "", "remote environment server address (empty = in-process simulator)")
		dialTO   = flag.Duration("dial-timeout", packet.DefaultDialTimeout, "TCP connect timeout for remote endpoints")
		rpcTO    = flag.Duration("rpc-timeout", 0, "per-RPC I/O deadline for remote endpoints (0 = 30s when -rpc-retries > 0, else none; <0 = explicitly none)")
		retries  = flag.Int("rpc-retries", 0, "reconnect budget per failed RPC; >0 enables transparent reconnect with idempotent replay (and payload CRCs)")
		mergeSim = flag.String("merge-sim", "", "merge mode: introspection URL of the rose-sim host")
		mergeEnv = flag.String("merge-env", "", "merge mode: introspection URL of the rose-env-server host")
		mergeOut = flag.String("merge-out", "merged_trace.json", "merge mode: output path for the merged Chrome trace")
		fpLog    = flag.String("fingerprint-log", "", "record the per-quantum determinism fingerprint chain and write it to this file (one hex value per line)")
		fpdiffA  = flag.String("fpdiff-a", "", "diff mode: first fingerprint log (with -fpdiff-b; reports the first divergent quantum)")
		fpdiffB  = flag.String("fpdiff-b", "", "diff mode: second fingerprint log")
	)
	flag.Parse()

	if *mergeSim != "" || *mergeEnv != "" {
		if err := mergeTraces(*mergeSim, *mergeEnv, *mergeOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *fpdiffA != "" || *fpdiffB != "" {
		diverged, err := diffFingerprints(*fpdiffA, *fpdiffB)
		if err != nil {
			log.Fatal(err)
		}
		if diverged {
			os.Exit(1)
		}
		return
	}

	// Resilience without a per-RPC deadline cannot recover a blackholed
	// link: reconnects only trigger on errors, and a silent peer produces
	// none. Default the deadline on rather than ship that footgun; an
	// explicit negative -rpc-timeout still disables it.
	if *retries > 0 && *rpcTO == 0 {
		*rpcTO = 30 * time.Second
		fmt.Printf("rpc-retries enabled without -rpc-timeout; defaulting per-RPC deadline to %v\n", *rpcTO)
	}

	dnn.RegistryTrainPerClass = *perClass
	hw, err := config.ByName(*hwName)
	if err != nil {
		log.Fatal(err)
	}
	precision, err := dnn.ParsePrecision(*prec)
	if err != nil {
		log.Fatal(err)
	}
	if err := forceKernel(*kernel); err != nil {
		log.Fatal(err)
	}

	// In restore mode the mission description comes from the image, not the
	// flags: pull it out early so the startup logging reports what actually
	// runs.
	var restoreImg *snapshot.Image
	if *restore != "" {
		data, err := os.ReadFile(*restore)
		if err != nil {
			log.Fatal(err)
		}
		if restoreImg, err = snapshot.Decode(data); err != nil {
			log.Fatal(err)
		}
		spec, err := experiments.SpecFromImage(restoreImg)
		if err != nil {
			log.Fatal(err)
		}
		*mapName, *model, *small = spec.Map, spec.Model, spec.SmallModel
		*scenario = spec.Scenario
		precision = spec.Precision
	}

	var suite *obs.Suite
	if *traceOut != "" || *metrics != "" || *watchdog > 0 || *logFile != "" {
		traceEvents := 0
		if *traceOut != "" || *metrics != "" {
			traceEvents = -1 // default ring capacity
		}
		suite = obs.New(traceEvents)
		suite.Host = "rose-sim"
		level, err := obs.ParseLevel(*logLevel)
		if err != nil {
			log.Fatal(err)
		}
		suite.Log.SetLevel(level)
		if *logFile == "-" {
			suite.Log.SetSink(os.Stderr, false)
		} else if *logFile != "" {
			f, err := os.Create(*logFile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			suite.Log.SetSink(f, true)
		}
		suite.Recorder.SetPath(*blackbox)
	}
	// The crash hook sees the panicking frames, dumps blackbox.json, and
	// re-panics — safe when suite is nil.
	defer func() { suite.RecoverPanic(recover()) }()
	if *metrics != "" {
		srv, err := suite.Serve(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics (trace at /trace.json, blackbox at /blackbox.json)\n", srv.Addr())
	}
	if *watchdog > 0 {
		suite.Recorder.StartWatchdog(*watchdog)
		defer suite.Recorder.StopWatchdog()
	}

	suite.SetMeta("gemm_kernel", tensor.ActiveKernel().String())
	suite.SetMeta("precision", precision.String())

	if *model != "" {
		fmt.Printf("training %s (and %s) on tunnel datasets...\n", *model, orNone(*small))
		fmt.Printf("inference: kernel=%v precision=%v\n", tensor.ActiveKernel(), precision)
	} else {
		fmt.Println("controller: scripted patrol (no DNN)")
	}
	if *scenario != "" {
		fmt.Printf("scenario: %s\n", *scenario)
	}
	suite.Logger().Info("mission starting",
		obs.Str("map", *mapName), obs.Str("scenario", *scenario),
		obs.Str("model", *model), obs.Str("hw", *hwName),
		obs.F64("v_fwd", *vfwd), obs.F64("max_sim_sec", *maxSec),
		obs.Str("gemm_kernel", tensor.ActiveKernel().String()),
		obs.Str("precision", precision.String()))
	spec := experiments.MissionSpec{
		Map:                *mapName,
		Model:              *model,
		SmallModel:         *small,
		HW:                 hw,
		VForward:           *vfwd,
		StartYawDeg:        *yawDeg,
		SyncCycles:         *sync,
		MaxSimSec:          *maxSec,
		Seed:               *seed,
		Scenario:           *scenario,
		Overlap:            overlapMode(*serial),
		Obs:                suite.Parent(),
		Precision:          precision,
		EnvAddr:            *envAddr,
		RecordFingerprints: *fpLog != "",
		EnvDial: env.DialOptions{
			DialTimeout: *dialTO,
			RPCTimeout:  *rpcTO,
			MaxRetries:  *retries,
			CRCPayload:  *retries > 0,
		},
	}

	var out *experiments.MissionOutcome
	switch {
	case restoreImg != nil:
		fmt.Printf("restoring mission from %s (captured at quantum %d)\n", *restore, restoreImg.Meta.Quantum)
		out, err = experiments.ResumeMission(restoreImg, suite.Parent(), *fpLog != "")
		if err != nil {
			log.Fatal(err)
		}
	case *snapOut != "":
		if *snapAt == 0 {
			log.Fatal("rose-sim: -snapshot-out needs -snapshot-at <quanta>")
		}
		img, err := experiments.CaptureMission(spec, *snapAt)
		if err != nil {
			log.Fatal(err)
		}
		enc, err := snapshot.Encode(img)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*snapOut, enc, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("snapshot at quantum %d written to %s (%d KiB)\n", img.Meta.Quantum, *snapOut, len(enc)/1024)
		return
	default:
		if n := experiments.FleetSize(*scenario); n > 1 {
			outs, err := experiments.RunSwarm(spec)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nfleet: %d drones in lockstep\n", len(outs))
			for i, o := range outs {
				r := o.Result
				fmt.Printf("drone %d: completed=%v time=%.2fs collisions=%d avgV=%.2f m/s fprint=%016x\n",
					i, r.Completed, r.MissionTimeSec, r.Collisions, r.AvgVelocity, r.Fingerprint)
			}
			return
		}
		out, err = experiments.RunMission(spec)
		if err != nil {
			log.Fatal(err)
		}
	}

	r := out.Result
	suite.Logger().Info("mission finished",
		obs.Bool("completed", r.Completed), obs.Int("collisions", int64(r.Collisions)),
		obs.F64("sim_sec", r.MissionTimeSec), obs.F64("wall_sec", r.WallSeconds),
		obs.Uint("quanta", r.Syncs))
	fmt.Printf("\nmission: completed=%v time=%.2fs collisions=%d avgV=%.2f m/s\n",
		r.Completed, r.MissionTimeSec, r.Collisions, r.AvgVelocity)
	fmt.Printf("soc:     cycles=%d activity=%.2f idle=%.2f syncs=%d\n",
		r.Cycles, r.SoC.ActivityFactor(),
		float64(r.SoC.IdleCycles)/float64(r.SoC.Cycles+1), r.Syncs)
	fmt.Printf("cosim:   wall=%.1fs throughput=%.1f simulated MHz, %d inferences\n",
		r.WallSeconds, r.ThroughputMHz(), len(out.Inferences))
	if r.HasEnergy {
		b := r.Energy
		fmt.Printf("energy:  %.4fJ simulated (core %.4f, accel %.4f, mem %.4f, static %.4f)  avg %.1fmW\n",
			b.TotalJoules(),
			float64(b.Dynamic.CorePJ)*1e-12, float64(b.Dynamic.AccelPJ)*1e-12,
			float64(b.Dynamic.MemPJ)*1e-12, float64(b.Static.TotalPJ())*1e-12,
			b.AvgPowerWatts(r.Cycles, 1e9)*1e3)
	}

	fmt.Printf("fprint:  %016x (rolling determinism fingerprint, %d quanta)\n", r.Fingerprint, r.Syncs)
	if *fpLog != "" {
		f, err := os.Create(*fpLog)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteFingerprintLog(f, r.Fingerprints); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fingerprint log (%d quanta) written to %s (diff two logs with -fpdiff-a/-fpdiff-b)\n",
			len(r.Fingerprints), *fpLog)
	}

	if suite != nil {
		fmt.Println()
		fmt.Print(telemetry.HealthStrip(suite.Summary()))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := suite.WriteTrace(f, suite.Host); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (open in https://ui.perfetto.dev)\n", *traceOut)
	}

	if *plot && len(r.Trajectory) > 0 {
		yLim := 3.0
		if *mapName == "s-shape" {
			yLim = 8
		}
		fmt.Println()
		fmt.Print(telemetry.RenderTrajectory(r.Trajectory, 0, r.Trajectory[len(r.Trajectory)-1].Pos.X+1,
			-yLim, yLim, 100, 21))
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		write := func(name string, fn func(f *os.File) error) {
			f, err := os.Create(filepath.Join(*outDir, name))
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if err := fn(f); err != nil {
				log.Fatal(err)
			}
		}
		write("trajectory.csv", func(f *os.File) error {
			return telemetry.WriteTrajectoryCSV(f, r.Trajectory)
		})
		write("inferences.csv", func(f *os.File) error {
			return telemetry.WriteInferencesCSV(f, out.Inferences)
		})
		fmt.Printf("\nlogs written to %s\n", *outDir)
	}
}

// mergeTraces fetches /trace.json from both hosts of a distributed run and
// writes one merged Chrome trace (DESIGN.md §6.4).
func mergeTraces(simURL, envURL, out string) error {
	if simURL == "" || envURL == "" {
		return fmt.Errorf("rose-sim: merge mode needs both -merge-sim and -merge-env URLs")
	}
	client, err := obs.FetchHostTrace(simURL)
	if err != nil {
		return err
	}
	server, err := obs.FetchHostTrace(envURL)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
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
	fmt.Printf("merged %d + %d spans (run %s) into %s\n", len(client.Spans), len(server.Spans), client.RunID, out)
	fmt.Printf("clock offset %s from %d matched quanta (open in https://ui.perfetto.dev)\n",
		offset.Round(time.Microsecond), samples)
	return nil
}

// diffFingerprints is the divergence bisector CLI: given two fingerprint
// logs (from -fingerprint-log runs), it reports whether and where the
// chains first diverge. The rolling-chain property means the reported
// quantum is exactly where the mission state first differed — replay to
// that quantum (e.g. -snapshot-at) to inspect it.
func diffFingerprints(pathA, pathB string) (diverged bool, err error) {
	if pathA == "" || pathB == "" {
		return false, fmt.Errorf("rose-sim: fingerprint diff needs both -fpdiff-a and -fpdiff-b")
	}
	parse := func(path string) ([]uint64, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		fps, err := experiments.ParseFingerprintLog(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return fps, nil
	}
	a, err := parse(pathA)
	if err != nil {
		return false, err
	}
	b, err := parse(pathB)
	if err != nil {
		return false, err
	}
	fmt.Println(experiments.DivergenceReport(pathA, a, pathB, b))
	_, diverged = experiments.FirstDivergentQuantum(a, b)
	return diverged, nil
}

// forceKernel applies a -gemm-kernel override and surfaces an invalid
// ROSE_GEMM_KERNEL environment value, which package init deliberately
// ignores (auto-detection fallback) rather than failing every binary.
func forceKernel(name string) error {
	if err := tensor.KernelInitErr(); err != nil {
		fmt.Printf("warning: %v (auto-detection in effect)\n", err)
	}
	if name == "" {
		return nil
	}
	k, err := tensor.ParseKernel(name)
	if err != nil {
		return err
	}
	return tensor.ForceKernel(k)
}

func orNone(s string) string {
	if s == "" {
		return "no small model"
	}
	return s
}

func overlapMode(serial bool) core.OverlapMode {
	if serial {
		return core.OverlapOff
	}
	return core.OverlapOn
}
