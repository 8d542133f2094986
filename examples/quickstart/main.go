// Quickstart: the smallest complete RoSÉ co-simulation — train a controller,
// build the simulated SoC, wire both into the synchronizer, and fly the
// tunnel. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/app"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/env"
	"repro/internal/gemmini"
	"repro/internal/ort"
	"repro/internal/soc"
	"repro/internal/telemetry"
	"repro/internal/world"
)

func main() {
	// 1. Train (or fetch the cached) trail-navigation DNN (the result is
	// cached per process; rose-train exposes full-size runs).
	model, err := dnn.Trained("ResNet14")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %s: validation accuracy %.0f%%\n",
		model.Net.Name, model.Result.Accuracy()*100)

	// 2. Environment simulator: the 50 m tunnel at 60 frames/s.
	sim, err := env.New(env.DefaultConfig(world.Tunnel()))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Simulated SoC (Table 2 config A: BOOM + Gemmini) running the
	// static DNN controller as its deployed application.
	sess, err := ort.NewSession(model.Net, gemmini.Default())
	if err != nil {
		log.Fatal(err)
	}
	ctrl := app.DefaultControlParams(3) // 3 m/s mission velocity
	flight := &app.Log{}
	machine := soc.NewStateMachine(config.A.SoCConfig(), app.NewStaticLoop(sess, ctrl, flight))
	defer machine.Close()

	// 4. Lockstep co-simulation (Algorithm 1): one 60 Hz frame per
	// 16.7M-cycle quantum at the modeled 1 GHz clock.
	sync, err := core.New(sim, machine, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	res, err := sync.Run()
	if err != nil {
		log.Fatal(err)
	}

	// 5. Results.
	fmt.Printf("mission complete=%v in %.2f s with %d collisions (avg %.2f m/s)\n",
		res.Completed, res.MissionTimeSec, res.Collisions, res.AvgVelocity)
	fmt.Printf("inference latency %.0f ms over %d control iterations; accelerator activity %.0f%%\n",
		flight.MeanLatency()*1e3, len(flight.Records()), res.SoC.ActivityFactor()*100)
	fmt.Println()
	fmt.Print(telemetry.RenderTrajectory(res.Trajectory, 0, 52, -2, 2, 100, 13))
}
