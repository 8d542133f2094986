# Developer entry points. The repo is plain `go build ./...`-able; these are
# conveniences around the common flows.

GO ?= go

.PHONY: build test vet check chaos fuzz scenariofuzz bench bench-kernels parity snapparity energyparity fingerparity

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# check is the pre-PR gate: vet + build + race-enabled tests + smoke-run of
# the hot-path benchmarks. See scripts/check.sh.
check:
	sh scripts/check.sh

# chaos runs the deterministic fault-injection suite under the race
# detector: scripted and seeded fault schedules through full loopback
# missions (byte-identical recovery), the dead-server bounded abort, and
# the transport/dedup unit tests they build on.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestDeadEnv' ./internal/core/
	$(GO) test -race -count=1 -run 'TestResil|TestServerDedup|TestServerAcceptBackoff' ./internal/env/
	$(GO) test -race -count=1 -run 'Retry|TransferCharge' ./internal/soc/
	$(GO) test -race -count=1 -run 'TestLink|TestResil|TestReplay|TestChecksum|TestWriterResil|TestAppendFrame' ./internal/packet/
	$(GO) test -race -count=1 ./internal/faultnet/

# parity re-runs the GEMM and convolution numerics contract (float32
# bit-identical, int8 exactly equal, GEMM and conv tails against their
# direct references, the whole fp32 forward on a reused workspace against a
# fresh one, the forward's feature hashes) with each microkernel forced via
# ROSE_GEMM_KERNEL. Kernels the
# host lacks skip gracefully, so this is safe on any machine; make check
# runs the same loop.
parity:
	for k in noasm sse avx2; do \
		echo "-- ROSE_GEMM_KERNEL=$$k"; \
		ROSE_GEMM_KERNEL=$$k $(GO) test -race -count=1 \
			-run 'TestKernel|TestMatMul|TestConv|TestTail|TestBlockFused|TestInt8|TestForwardWS|TestForwardGolden|TestQuant|TestIm2ColI8' \
			./internal/tensor/ ./internal/dnn/ || exit 1; \
	done

# snapparity proves the warm-start contract: snapshot -> restore -> run is
# byte-identical to the uninterrupted mission across {tunnel, s-shape} x
# {overlap, serial} locally, for the dynamic runtime in both overlap modes,
# and across the TCP-remote RTL, and a fork of a degraded-sensor patrol
# equals its cold replay under every sensor seed, under the race detector;
# make check runs the same matrix.
snapparity:
	$(GO) test -race -count=1 -run 'TestSnapshotParity|TestWarmColdParityPatrol' ./internal/experiments/

# energyparity proves the energy ledger's determinism contract: identical
# EnergyBreakdown totals across {overlap, serial} x {local, TCP-remote RTL},
# and the EnergyOff knob leaving timing untouched; snapshot -> restore -> run
# equal to uninterrupted is asserted by the snapshot parity matrix. make
# check runs the same set.
energyparity:
	$(GO) test -race -count=1 -run 'TestEnergy' ./internal/experiments/

# fingerparity proves the determinism-fingerprint contract: the rolling
# per-quantum FNV-1a chain is identical for a local machine and a TCP-remote
# RTL server running the same mission, the fingerprint log round-trips, and
# the live-divergence bisector localizes an injected wire-level bit flip to
# the quantum where it happened, and frame-less quanta granted in runs fly
# the mission that single steps fly; make check runs the same matrix.
fingerparity:
	$(GO) test -race -count=1 -run 'TestFingerprintParityLocalRemote|TestFingerprintLogRoundTrip|TestLiveDivergenceRemoteRTL|TestFirstDivergentQuantum' ./internal/experiments/
	$(GO) test -race -count=1 -run 'TestRunMatchesSingleSteps|TestRunStopsAtMissionComplete|TestRunProgramExit' ./internal/core/

# scenariofuzz is the property-based mission sweep at full budget: 16 seeds
# per scenario family (wind, degraded, squall, storm, swarm = 80 scenarios)
# on rotating procedural worlds, each mission checked against the invariant
# catalog (no tunneling, bounded speed, in-bounds, fingerprint-identical
# replay, snapshot/restore parity). A violation prints the scenario + map
# repro pair and the first divergent quantum; narrow a failure with
# ROSE_SCENARIOFUZZ_ONLY=<family:seed>. make check runs a bounded sweep.
scenariofuzz:
	ROSE_SCENARIOFUZZ_SEEDS=16 $(GO) test -race -count=1 -v \
		-run 'TestScenarioFuzz|TestInjectedFault' ./internal/experiments/fuzz/

# fuzz gives each framing/codec/log/restore/handler fuzz target a short
# native-fuzzing burst (minimization capped at 100 executions, as in
# scripts/check.sh).
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecode$$ -fuzztime 10s -fuzzminimizetime 100x ./internal/packet/
	$(GO) test -run xxx -fuzz FuzzReaderNext$$ -fuzztime 10s -fuzzminimizetime 100x ./internal/packet/
	$(GO) test -run xxx -fuzz FuzzDecodeTelemetry$$ -fuzztime 10s -fuzzminimizetime 100x ./internal/env/
	$(GO) test -run xxx -fuzz FuzzRTLReply$$ -fuzztime 10s -fuzzminimizetime 100x ./internal/soc/
	$(GO) test -run xxx -fuzz FuzzRTLSnapReply$$ -fuzztime 10s -fuzzminimizetime 100x ./internal/soc/
	$(GO) test -run xxx -fuzz FuzzServerHandlers$$ -fuzztime 10s -fuzzminimizetime 100x ./internal/soc/
	$(GO) test -run xxx -fuzz FuzzRestoreMachine$$ -fuzztime 10s -fuzzminimizetime 100x ./internal/app/
	$(GO) test -run xxx -fuzz FuzzImageDecode$$ -fuzztime 10s -fuzzminimizetime 100x ./internal/snapshot/
	$(GO) test -run xxx -fuzz FuzzParseFingerprintLog$$ -fuzztime 10s -fuzzminimizetime 100x ./internal/experiments/

# bench regenerates every paper table/figure as a benchmark (minutes).
bench:
	$(GO) test -bench . -benchmem .

# bench-kernels times just the perf-critical kernels and the forward pass
# missions run (seconds).
bench-kernels:
	$(GO) test -run xxx -bench 'BenchmarkMatMul|BenchmarkConv' -benchmem ./internal/tensor/
	$(GO) test -run xxx -bench 'BenchmarkForward$$|BenchmarkMatMulInt8$$' -benchmem ./internal/dnn/
	$(GO) test -run xxx -bench 'BenchmarkRender' -benchmem ./internal/render/
