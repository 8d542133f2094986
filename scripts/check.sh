#!/bin/sh
# check.sh — the full local gate: vet, build, race-enabled tests, and a short
# benchmark pass over the perf-critical kernels. Run before sending a PR;
# everything here must be clean.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race (shuffled) =="
# The race run covers the parallel GEMM, the row-band renderer, concurrent
# mission sweeps, and the per-goroutine workspace discipline. -shuffle=on
# randomizes test order so inter-test state leaks (forced kernels, cached
# models, leaked goroutines) surface instead of hiding behind file order;
# the seed is printed on failure for reproduction.
go test -race -shuffle=on ./...

echo "== go test -race (observability hot paths) =="
# Re-run the packages whose instrumentation is exercised from multiple
# goroutines (synchronizer + env worker + RPC server) with -count=1 so the
# obs hooks are always raced fresh, never served from the test cache.
go test -race -count=1 ./internal/core/... ./internal/env/... ./internal/obs/...

echo "== GEMM kernel parity matrix (forced kernels) =="
# The numerics contract under every dispatchable microkernel: float32
# bit-identical and int8 exactly equal across noasm/sse/avx2, solo and
# batched, raced fresh — the GEMM against its naive reference, and every
# convolution (plain, and with its fused BN/ReLU epilogue, fp32 and int8)
# against a direct loop. Forcing a kernel the host lacks is graceful — init
# records the error, auto-detection stays in effect, and the forced-kernel
# tests skip that kernel — so the loop is safe on any machine.
for k in noasm sse avx2; do
    echo "-- ROSE_GEMM_KERNEL=$k"
    ROSE_GEMM_KERNEL=$k go test -race -count=1 \
        -run 'TestKernel|TestMatMul|TestConv|TestBlockFused|TestInt8|TestBatchedForward|TestForwardWSP|TestQuant|TestIm2ColI8' \
        ./internal/tensor/ ./internal/dnn/
done

echo "== fingerprint parity matrix =="
# Determinism fingerprints: the rolling per-quantum FNV-1a chain must be
# identical local vs TCP-remote RTL, and the live-divergence bisector must
# localize an injected bit flip to the quantum where it happened.
go test -race -count=1 -run 'TestFingerprintParityLocalRemote|TestLiveDivergenceRemoteRTL|TestFirstDivergentQuantum' ./internal/experiments/

echo "== snapshot parity matrix =="
# Warm-start correctness: snapshot -> restore -> run must be byte-identical
# to the uninterrupted mission, across maps, overlap modes, and the
# TCP-remote RTL, and a forked sensor-seed variant of a degraded-sensor
# patrol must equal its cold replay quantum for quantum, raced fresh every
# time.
go test -race -count=1 -run 'TestSnapshotParity|TestWarmColdParityPatrol' ./internal/experiments/

echo "== energy parity matrix =="
# The energy ledger's determinism contract: byte-identical EnergyBreakdown
# totals across {overlap, serial} x {local, TCP-remote RTL}, and EnergyOff
# leaving the mission's timing and trajectory untouched.
go test -race -count=1 -run 'TestEnergy' ./internal/experiments/

echo "== scenario fuzz (bounded) =="
# The property-based mission sweep on a bounded seed budget: every scenario
# family x 6 seeds on rotating procedural worlds, each mission checked for
# tunneling, speed/bounds violations, replay determinism, and snapshot
# parity — plus the fault-localization proof (an injected impulse must
# diverge the fingerprint chain at its quantum). make scenariofuzz runs the
# full 16-seed sweep.
ROSE_SCENARIOFUZZ_SEEDS=6 go test -race -count=1 \
    -run 'TestScenarioFuzz|TestInjectedFault' ./internal/experiments/fuzz/

echo "== fuzz smoke (50s) =="
# A short native-fuzzing burst per decoder of outside bytes: packet framing
# (buffer and stream decoders, including the resilience extension + CRC),
# the telemetry codec, the remote-RTL reply payloads (status codec and
# packet batch), and rose-snap/1 snapshot images. Each -fuzz pattern must
# match exactly one target. Snapshot seeds are KiB-sized, so their
# minimization is capped at 1s; the default 60s would eat the whole burst.
go test -run xxx -fuzz 'FuzzDecode$' -fuzztime 10s ./internal/packet/
go test -run xxx -fuzz 'FuzzReaderNext$' -fuzztime 10s ./internal/packet/
go test -run xxx -fuzz 'FuzzDecodeTelemetry$' -fuzztime 10s ./internal/env/
go test -run xxx -fuzz 'FuzzRTLReply$' -fuzztime 10s ./internal/soc/
go test -run xxx -fuzz 'FuzzImageDecode$' -fuzztime 10s -fuzzminimizetime 1s ./internal/snapshot/

echo "== short benchmarks =="
# One iteration each: catches kernels that stopped compiling or regressed to
# pathological allocation, without turning the gate into a perf run.
go test -run xxx -bench 'BenchmarkMatMul|BenchmarkConv2D' -benchtime 1x -benchmem ./internal/tensor/
go test -run xxx -bench 'BenchmarkForward$' -benchtime 1x -benchmem ./internal/dnn/
go test -run xxx -bench 'BenchmarkRender' -benchtime 1x -benchmem ./internal/render/
go test -run xxx -bench 'BenchmarkQuantumTCP' -benchtime 100x -benchmem .

echo "== allocation gate (0 allocs/op hot paths) =="
# The hot-path allocation contract (DESIGN.md §4.7, §6, §11): one
# synchronization quantum — render, bridge exchange, inference, physics,
# always-on fingerprint fold — must not allocate with observability
# disabled, in every harness: the TCP-remote env exchange, the TCP-remote
# RTL quantum, and the fully assembled steady-state mission quantum. Any
# alloc/op above 0 fails the gate.
alloc_gate() {
    pkg=$1; bench=$2; times=$3
    out=$(go test -run xxx -bench "$bench" -benchtime "$times" -benchmem "$pkg")
    line=$(echo "$out" | grep "^Benchmark" || true)
    if [ -z "$line" ]; then
        echo "$out"
        echo "alloc gate: $bench did not run" >&2
        exit 1
    fi
    echo "$line"
    allocs=$(echo "$line" | awk '{print $(NF-1)}' | tail -1)
    if [ "$allocs" != "0" ]; then
        echo "alloc gate: $bench regressed to $allocs allocs/op (want 0)" >&2
        exit 1
    fi
}
alloc_gate . 'BenchmarkQuantumTCP$' 200x
alloc_gate . 'BenchmarkQuantumRemoteRTL$' 200x
alloc_gate ./internal/experiments/ 'BenchmarkMissionQuantum$' 500x

echo "check: OK"
