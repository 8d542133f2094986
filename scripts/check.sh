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

# require_tests PATTERN PKG... fails, naming it, on any |-alternative of a
# -run or -fuzz PATTERN that lists no test, benchmark or fuzz target in the
# packages: a pattern naming a renamed or deleted test would otherwise
# select nothing and pass in silence.
require_tests() {
    pattern=$1
    shift
    missing=""
    for alt in $(echo "$pattern" | tr '|' ' '); do
        if ! go test -list "$alt" "$@" | grep -q -E '^(Test|Benchmark|Fuzz|Example)'; then
            missing="$missing $alt"
        fi
    done
    if [ -n "$missing" ]; then
        echo "require_tests: no test in $* matches:$missing" >&2
        exit 1
    fi
}

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
# goroutines (synchronizer + env worker + the packet serve loop behind both
# RPC servers) with -count=1 so the obs hooks are always raced fresh, never
# served from the test cache.
go test -race -count=1 ./internal/core/... ./internal/env/... ./internal/obs/... \
    ./internal/packet/... ./internal/soc/...

echo "== GEMM kernel parity matrix (forced kernels) =="
# The numerics contract under every dispatchable microkernel: float32
# bit-identical and int8 exactly equal across noasm/sse/avx2, raced fresh —
# the GEMM against its naive reference, every convolution (plain, and with
# its fused BN/ReLU epilogue, fp32 and int8) against a direct loop, and the
# whole fp32 forward on a reused workspace against a fresh one. Forcing a
# kernel the host lacks is graceful — init records the error,
# auto-detection stays in effect, and the forced-kernel tests skip that
# kernel — so the loop is safe on any machine.
parity_run='TestKernel|TestMatMul|TestConv|TestBlockFused|TestInt8|TestForwardWS|TestQuant|TestIm2ColI8'
require_tests "$parity_run" ./internal/tensor/ ./internal/dnn/
for k in noasm sse avx2; do
    echo "-- ROSE_GEMM_KERNEL=$k"
    ROSE_GEMM_KERNEL=$k go test -race -count=1 -run "$parity_run" \
        ./internal/tensor/ ./internal/dnn/
done

echo "== portable build (noasm, arm64) =="
# What a host without the assembly kernels builds: the same parity set under
# -tags noasm (the portable kernels and the assembly stubs; the sse and
# avx2 rows skip), and a cross-compile of everything for arm64.
go test -count=1 -tags noasm -run "$parity_run" ./internal/tensor/ ./internal/dnn/
GOARCH=arm64 go build ./...

echo "== fingerprint parity matrix =="
# Determinism fingerprints: the rolling per-quantum FNV-1a chain must be
# identical local vs TCP-remote RTL, the fingerprint log must round-trip,
# and the live-divergence bisector must localize an injected bit flip to
# the quantum where it happened. The same set as make fingerparity.
finger_run='TestFingerprintParityLocalRemote|TestFingerprintLogRoundTrip|TestLiveDivergenceRemoteRTL|TestFirstDivergentQuantum'
require_tests "$finger_run" ./internal/experiments/
go test -race -count=1 -run "$finger_run" ./internal/experiments/

echo "== snapshot parity matrix =="
# Warm-start correctness: snapshot -> restore -> run must be byte-identical
# to the uninterrupted mission, across maps, overlap modes, the dynamic
# runtime, and the TCP-remote RTL, and a forked sensor-seed variant of a
# degraded-sensor patrol must equal its cold replay quantum for quantum,
# raced fresh every time.
snap_run='TestSnapshotParity|TestWarmColdParityPatrol'
require_tests "$snap_run" ./internal/experiments/
go test -race -count=1 -run "$snap_run" ./internal/experiments/

echo "== energy parity matrix =="
# The energy ledger's determinism contract: byte-identical EnergyBreakdown
# totals across {overlap, serial} x {local, TCP-remote RTL}, and EnergyOff
# leaving the mission's timing and trajectory untouched.
require_tests 'TestEnergy' ./internal/experiments/
go test -race -count=1 -run 'TestEnergy' ./internal/experiments/

echo "== render parity =="
# The camera's exactness contract: a ray cast through the per-frame ray fan
# (world.RayFan) returns the Hit Map.Raycast returns (Scene.Raycast for
# scenes with moving walls and peers), every field bit for bit — on the
# paper maps, ten seeds of each procedural family, kilometre-long walls and
# the dataset's curved training corridors, from poses inside and outside
# the corridor, above the walls, rolled and pitched to ±80°, on a wall's
# line or endpoint, and not finite — and every rendered pixel matches,
# serial or in row bands sharing one fan, raced fresh.
render_run='TestRayFanBitIdentical|TestFanKeyMonotone|TestRenderFanBitIdentical|TestRenderBandsBitIdentical|TestRenderSceneEmptyBitIdentical|TestCurvedCorridorFanBitIdentical'
require_tests "$render_run" ./internal/world/ ./internal/render/ ./internal/dnn/
go test -race -count=1 -run "$render_run" ./internal/world/ ./internal/render/ ./internal/dnn/

echo "== scenario fuzz (bounded) =="
# The property-based mission sweep on a bounded seed budget: every scenario
# family x 6 seeds on rotating procedural worlds, each mission checked for
# tunneling, speed/bounds violations, replay determinism, and snapshot
# parity — plus the fault-localization proof (an injected impulse must
# diverge the fingerprint chain at its quantum). make scenariofuzz runs the
# full 16-seed sweep.
scen_run='TestScenarioFuzz|TestInjectedFault'
require_tests "$scen_run" ./internal/experiments/fuzz/
ROSE_SCENARIOFUZZ_SEEDS=6 go test -race -count=1 -run "$scen_run" ./internal/experiments/fuzz/

echo "== fuzz smoke (70s) =="
# A short native-fuzzing burst per decoder of outside bytes: packet framing
# (buffer and stream decoders, including the resilience extension + CRC),
# the telemetry codec, the remote-RTL reply payloads (status codec and
# packet batch), the remote-RTL restore path (a gob SnapState restored into
# a StaticLoop machine and stepped), rose-snap/1 snapshot images, and
# fingerprint logs. Each -fuzz pattern must match exactly one target: go
# test rejects more than one, require_tests rejects none. Every burst caps
# minimizing a new input at 1s: the default 60s stalls a burst at 0
# execs/sec as soon as one input is found interesting.
fuzz_smoke() {
    pkg=$1
    target=$2
    require_tests "$target" "$pkg"
    go test -run xxx -fuzz "$target" -fuzztime 10s -fuzzminimizetime 1s "$pkg"
}
fuzz_smoke ./internal/packet/ 'FuzzDecode$'
fuzz_smoke ./internal/packet/ 'FuzzReaderNext$'
fuzz_smoke ./internal/env/ 'FuzzDecodeTelemetry$'
fuzz_smoke ./internal/soc/ 'FuzzRTLReply$'
fuzz_smoke ./internal/app/ 'FuzzRestoreMachine$'
fuzz_smoke ./internal/snapshot/ 'FuzzImageDecode$'
fuzz_smoke ./internal/experiments/ 'FuzzParseFingerprintLog$'

echo "== short benchmarks =="
# One iteration each: catches kernels that stopped compiling or regressed to
# pathological allocation, without turning the gate into a perf run.
go test -run xxx -bench 'BenchmarkMatMul|BenchmarkConv2D' -benchtime 1x -benchmem ./internal/tensor/
go test -run xxx -bench 'BenchmarkForward$|BenchmarkMatMulInt8$' -benchtime 1x -benchmem ./internal/dnn/
go test -run xxx -bench 'BenchmarkRender' -benchtime 1x -benchmem ./internal/render/
go test -run xxx -bench 'BenchmarkQuantumTCP' -benchtime 100x -benchmem .

echo "== allocation gate (0 allocs/op hot paths) =="
# The hot-path allocation contract (DESIGN.md §4.7, §6, §11): one
# synchronization quantum — render, bridge exchange, inference, physics,
# always-on fingerprint fold — must not allocate with observability
# disabled, in every harness: the TCP-remote env exchange, the TCP-remote
# RTL quantum, and the fully assembled steady-state mission quantum. The
# TCP env exchange must not allocate with request accounting on at both
# ends either (the packet serve loop's observed path); nor may the
# int8 forward pass, which allocates nothing at any GOMAXPROCS (the fp32
# rows start the parallel GEMM's band goroutines above GOMAXPROCS=1), nor
# the SoC engine's quantum (resuming the program coroutine), which starts
# no goroutine and is gated at both -cpu 1 and 2. Any benchmark line the
# pattern selects with an alloc/op above 0, or without an allocs/op figure,
# fails the gate. Arguments after the third go to go test.
alloc_gate() {
    pkg=$1; bench=$2; times=$3
    shift 3
    out=$(go test -run xxx -bench "$bench" -benchtime "$times" -benchmem "$@" "$pkg")
    lines=$(echo "$out" | grep "^Benchmark" || true)
    if [ -z "$lines" ]; then
        echo "$out"
        echo "alloc gate: $bench did not run" >&2
        exit 1
    fi
    echo "$lines"
    bad=$(echo "$lines" | awk '{
        a = "none"
        for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") a = $i
        if (a != "0") print $1 ": " a " allocs/op"
    }')
    if [ -n "$bad" ]; then
        echo "$bad" >&2
        echo "alloc gate: $bench regressed (want 0 allocs/op on every line)" >&2
        exit 1
    fi
}
alloc_gate . 'BenchmarkQuantumTCP$' 200x
alloc_gate . 'BenchmarkQuantumTCPObserved$' 200x
alloc_gate . 'BenchmarkQuantumRemoteRTL$' 200x
alloc_gate ./internal/experiments/ 'BenchmarkMissionQuantum$' 500x
alloc_gate ./internal/dnn/ 'BenchmarkForward$/ResNet(6|14)/int8$' 20x
alloc_gate ./internal/soc/ 'BenchmarkEngineStep$' 20000x -cpu 1,2

echo "check: OK"
