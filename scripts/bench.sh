#!/bin/sh
# bench.sh — run the headline co-simulation benchmarks and record them as a
# JSON snapshot, BENCH_PR<n>.json at the repo root. One snapshot per PR
# makes the per-PR benchmark trail. Usage:
#
#	sh scripts/bench.sh <PR-number>
#
# The snapshot records:
#   - the mission step: the default (overlapped quantum execution) and the
#     serial reference, ns/op, ns/quantum and allocs/op, plus its
#     observed and EnergyOff twins as plain rows;
#   - one steady-state mission quantum (BenchmarkMissionQuantum) and its
#     calm/squall/storm scenario twins (BenchmarkMissionQuantumScenario);
#   - the TCP RPC quantum (allocs must stay 0): plain, observed, through the
#     faultnet wrapper with nothing armed, and over the resilient transport
#     (replay window, deadlines, CRCs); and the remote-RTL quantum
#     (BenchmarkQuantumRemoteRTL: a quiet quantum, where only the step
#     reaches the wire, one whose program sends a packet, which adds the
#     wire drain, and quiet-run, the quiet program granted runs of 16
#     quanta, one round trip per run, still per quantum);
#   - the fine-granularity quantum (BenchmarkQuantumFine at -cpu 1):
#     Figure 15's synthetic program in process and overlapped at 10k
#     cycles per quantum, where nearly every quantum steps no frame;
#   - the SoC engine's quantum (BenchmarkEngineStep): one Step resuming the
#     program coroutine of a bridge-chatty program, 0 allocs/op;
#   - energy_overhead_pct from BenchmarkMissionStepEnergyPaired and
#     stream_fprint_overhead_pct from BenchmarkMissionStepStreamPaired, the
#     only overhead numbers: each alternates its bare and instrumented arms
#     inside one timing loop, so shared-vCPU drift cancels, where a delta
#     between two separately run benchmarks would be host noise. Even so
#     five 40-iteration rounds of the stream pair spread from -1.4 to 6.2
#     on a 2-vCPU host, straddling its 2% bound, so each pair runs five
#     rounds of 200 iterations and is recorded as the median with every
#     round beside it (<key>_rounds), and <key>_verdict judges the contract
#     from the rounds: "within" when every round is under the bound, "over"
#     when every round is above it, "unresolved" when they straddle it (the
#     median then falls on either side by chance); beside the stream
#     pair's percentage, each arm's ns/quantum and their difference in
#     µs/quantum (stream_fprint_bare_ns_quantum, _instr_ns_quantum,
#     _overhead_us_quantum, median and rounds), which tell a fixed
#     per-quantum cost from one that grows;
#   - the forward pass missions run (BenchmarkForward: ResNet6 and ResNet14
#     on fp32 and int8, at -cpu 1), with the int8 rows' a_zero_pct;
#   - one 64x48 camera frame per map (BenchmarkRenderFrame at -cpu 1: the
#     tunnel, slalom:1, rooms:1, corridor:1 and the s-shape), with each
#     map's wall count;
#   - missions/sec/host for four concurrent ResNet14 missions
#     (BenchmarkFleetSolo);
#   - warm-start sweeps: cold vs warm sweep walls, the drift-cancelling
#     warmstart_speedup, and snapshot capture/restore costs;
#   - conv_kernels: us/op and allocs/op of Conv2DWS per dispatchable
#     microkernel on ResNet14's conv shapes (BenchmarkConvKernels at -cpu 1,
#     a warm workspace; the fp32 GEMM reads its patches in place), keyed
#     kernel/shape, and of the 3x3/s1 convs with the block tails the GEMM
#     applies (+BN+ReLU, +BN+residual+ReLU), keyed kernel/shape/tail;
#   - gemm_kernels: ns/op and macs/ns per dispatchable GEMM microkernel on
#     the ResNet14 GEMM shapes, fp32 (kernel/shape, random dense operands)
#     and int8 (int8/kernel/shape, the operands of a ResNet14 int8 forward,
#     with their a_zero_pct), with avx2_speedup_vs_sse (fp32) and
#     int8_avx2_speedup_vs_noasm;
#   - vs_prev: ns/op deltas against the newest earlier snapshot
#     BENCH_PR<m>.json (m < n, recorded as prev_pr; PRs without a snapshot
#     are skipped), for benchmarks present in both (empty when there is no
#     earlier snapshot). Informational only: the two snapshots ran at different times, so host drift enters
#     every delta (short benchmarks have read several times slower in one
#     snapshot than the other on an unchanged path); a regression claim
#     needs a paired before/after run of the two trees.
set -eu

cd "$(dirname "$0")/.."
case "${1:-}" in
'' | *[!0-9]*)
    echo "usage: sh scripts/bench.sh <PR-number>" >&2
    exit 2
    ;;
esac
pr=$1
out="BENCH_PR${pr}.json"
# The newest earlier snapshot: not every PR writes one.
prev=""
prevpr=null
for f in BENCH_PR*.json; do
    m=${f#BENCH_PR}
    m=${m%.json}
    case $m in '' | *[!0-9]*) continue ;; esac
    if [ "$m" -lt "$pr" ] && { [ -z "$prev" ] || [ "$m" -gt "$prevpr" ]; }; then
        prev=$f
        prevpr=$m
    fi
done
raw=$(mktemp)
prevpairs=$(mktemp)
trap 'rm -f "$raw" "$prevpairs"' EXIT

echo "== benchmarks (this takes a few minutes: models train once) =="
go test -run xxx \
    -bench 'BenchmarkMissionStep$|BenchmarkMissionStepSerial$|BenchmarkMissionStepObserved$|BenchmarkMissionStepEnergyOff$|BenchmarkQuantumTCP$|BenchmarkQuantumTCPObserved$|BenchmarkQuantumTCPFaultnet$|BenchmarkQuantumTCPResilient$' \
    -benchtime 4x -benchmem . | tee "$raw"

go test -run xxx -bench 'BenchmarkQuantumRemoteRTL$' -benchmem . | tee -a "$raw"
go test -run xxx -bench 'BenchmarkQuantumFine$' -cpu 1 -benchmem ./internal/experiments/ | tee -a "$raw"
go test -run xxx -bench 'BenchmarkEngineStep$' -benchmem ./internal/soc/ | tee -a "$raw"
go test -run xxx -bench 'BenchmarkMissionQuantum' -benchtime 500x -benchmem \
    ./internal/experiments/ | tee -a "$raw"

echo "== instrumentation cost (drift-cancelling pairs, five rounds) =="
# Each alternates its bare and instrumented missions inside one timing loop
# so shared-vCPU frequency drift cancels: energy_overhead_pct prices the
# energy ledger (≤1.5% contract), stream_fprint_overhead_pct fingerprinting
# plus one live viewer (≤2% contract). The snapshot keeps every round and
# their median.
go test -run xxx -bench 'BenchmarkMissionStepEnergyPaired$|BenchmarkMissionStepStreamPaired$' \
    -benchtime 200x -count 5 . | tee -a "$raw"

echo "== forward pass (-cpu 1) =="
go test -run xxx -bench 'BenchmarkForward$' -cpu 1 -benchmem ./internal/dnn/ | tee -a "$raw"

echo "== camera frame per map (-cpu 1) =="
go test -run xxx -bench 'BenchmarkRenderFrame$' -cpu 1 -benchmem ./internal/render/ | tee -a "$raw"

echo "== fleet throughput (missions/sec/host) =="
go test -run xxx -bench 'BenchmarkFleetSolo$' -benchtime 3x -benchmem . | tee -a "$raw"

echo "== warm-start sweeps (snapshot + fork vs full replay) =="
# The Paired benchmark interleaves a cold sweep (8 variants x full replay)
# and a warm sweep (prefix once, snapshot, 8 forks) in the same timing
# loop; warm_speedup_x is the headline. The separate Cold/Warm runs give
# absolute sweep walls, and the snapshot micro-pair prices one capture and
# one restore+rebuild.
go test -run xxx -bench 'BenchmarkSweepCold$|BenchmarkSweepWarm$' \
    -benchtime 3x . | tee -a "$raw"
go test -run xxx -bench 'BenchmarkWarmstartPaired$' -benchtime 5x . | tee -a "$raw"
go test -run xxx -bench 'BenchmarkSnapshotCapture$|BenchmarkSnapshotRestore$' \
    -benchmem ./internal/experiments/ | tee -a "$raw"

echo "== conv kernels (-cpu 1) =="
go test -run xxx -bench 'BenchmarkConvKernels$' -cpu 1 -benchmem ./internal/tensor/ | tee -a "$raw"

echo "== GEMM kernel table =="
go test -run xxx -bench 'BenchmarkMatMulKernels' -benchmem ./internal/tensor/ | tee -a "$raw"
go test -run xxx -bench 'BenchmarkMatMulInt8$' -benchmem ./internal/dnn/ | tee -a "$raw"

# The logger micro-pair is nanoseconds per op; give it a real benchtime so
# the delta is signal, not timer noise.
go test -run xxx -bench 'BenchmarkLogEvent' -benchmem . | tee -a "$raw"

# `go test | tee` hides a failing left side under POSIX sh (no pipefail):
# refuse to emit a snapshot from empty or benchmark-free output rather than
# writing a silently hollow JSON.
grep -q '^Benchmark' "$raw" || {
    echo "bench.sh: no benchmark output captured; see the log above" >&2
    exit 1
}

# Previous snapshot's ns/op per benchmark, as "name value" pairs, for the
# vs_prev delta section. No earlier snapshot yields an empty list.
if [ -n "$prev" ]; then
    sed -n 's/^ *"\(Benchmark[^"]*\)": {"ns_op": \([0-9.eE+-]*\).*/\1 \2/p' "$prev" > "$prevpairs"
fi
# Keep the pairs file non-empty so awk's FNR==NR file split stays correct.
[ -s "$prevpairs" ] || echo "#" > "$prevpairs"

awk -v pr="$pr" -v prevpr="$prevpr" '
# median returns the median of the space-separated numbers in list.
function median(list,    v, c, i, j, t) {
    c = split(list, v, " ")
    for (i = 2; i <= c; i++)
        for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) {
            t = v[j]; v[j] = v[j-1]; v[j-1] = t
        }
    return (c % 2 ? v[(c+1)/2] : (v[c/2] + v[c/2+1]) / 2)
}
# series prints "key": median and "key_rounds": [every round] for a metric
# a paired benchmark reports once per round, or "key": null when the
# benchmark did not run.
function series(key, list,    v, c, i) {
    if (list == "") { printf "  \"%s\": null", key; return }
    c = split(list, v, " ")
    printf "  \"%s\": %s,\n  \"%s_rounds\": [", key, median(list), key
    for (i = 1; i <= c; i++) printf "%s%s", v[i], (i < c ? ", " : "")
    printf "]"
}
# rounds prints series(key, list) and "key_verdict" against the contract
# bound for a paired metric: "within" when every round is under bound,
# "over" when every round is above it, "unresolved" otherwise.
function rounds(key, list, bound,    v, c, i, under, above, verdict) {
    series(key, list)
    if (list == "") return
    c = split(list, v, " ")
    under = above = 0
    for (i = 1; i <= c; i++) {
        if (v[i] + 0 < bound) under++
        if (v[i] + 0 > bound) above++
    }
    verdict = (under == c ? "within" : (above == c ? "over" : "unresolved"))
    printf ",\n  \"%s_verdict\": \"%s\"", key, verdict
}
# speedup prints "key": {shape: base/fast} for every shape whose GEMM row
# exists under both kernel prefixes of gemm_kernels.
function speedup(key, base, fast,    i, s, shape, k, shapes) {
    s = 0
    for (i = 0; i < m; i++) {
        k = kkey[i]
        if (index(k, fast) != 1) continue
        shape = substr(k, length(fast) + 1)
        if ((base shape) in kern) shapes[s++] = shape
    }
    printf "  \"%s\": {\n", key
    for (i = 0; i < s; i++)
        printf "    \"%s\": %.2f%s\n", shapes[i], kern[base shapes[i]] / kern[fast shapes[i]], \
            (i < s-1 ? "," : "")
    printf "  }"
}
FNR == NR { if (NF == 2) prevns[$1] = $2; next }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in nsop)) order[n++] = name # -count repeats a name; keep the last round
    nsop[name] = $3
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "ns/quantum") nsq[name] = $i
        if ($(i+1) == "allocs/op") allocs[name] = $i
        if ($(i+1) == "B/op") bop[name] = $i
        if ($(i+1) == "missions/s") mps[name] = $i
        if ($(i+1) == "macs/ns") macs[name] = $i
        if ($(i+1) == "warm_speedup_x") warm[name] = $i
        if ($(i+1) == "energy_overhead_pct") nrg[name] = nrg[name] " " $i
        if ($(i+1) == "stream_fprint_overhead_pct") strm[name] = strm[name] " " $i
        if ($(i+1) == "bare_ns/quantum") sbare[name] = sbare[name] " " $i
        if ($(i+1) == "instr_ns/quantum") sinstr[name] = sinstr[name] " " $i
        if ($(i+1) == "overhead_us/quantum") sdiff[name] = sdiff[name] " " $i
        if ($(i+1) == "image_bytes") imgb[name] = $i
        if ($(i+1) == "a_zero_pct") azero[name] = $i
        if ($(i+1) == "walls") walls[name] = $i
        if ($(i+1) == "us/op") us[name] = $i
    }
}
END {
    printf "{\n  \"pr\": %s,\n  \"benchmarks\": {\n", pr
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_op\": %s", name, nsop[name]
        if (name in nsq)    printf ", \"ns_quantum\": %s", nsq[name]
        if (name in mps)    printf ", \"missions_per_sec_host\": %s", mps[name]
        if (name in warm)   printf ", \"warm_speedup_x\": %s", warm[name]
        if (name in nrg)    printf ", \"energy_overhead_pct\": %s", median(nrg[name])
        if (name in strm)   printf ", \"stream_fprint_overhead_pct\": %s", median(strm[name])
        if (name in imgb)   printf ", \"image_bytes\": %s", imgb[name]
        if (name in macs)   printf ", \"macs_per_ns\": %s", macs[name]
        if (name in azero)  printf ", \"a_zero_pct\": %s", azero[name]
        if (name in walls)  printf ", \"walls\": %s", walls[name]
        if (name in bop)    printf ", \"b_op\": %s", bop[name]
        if (name in allocs) printf ", \"allocs_op\": %s", allocs[name]
        printf "}%s\n", (i < n-1 ? "," : "")
    }
    printf "  },\n  \"gemm_kernels\": {\n"
    # ns/op and macs/ns per kernel per shape: fp32 rows keyed kernel/shape,
    # int8 rows int8/kernel/shape.
    m = 0
    for (i = 0; i < n; i++) {
        name = order[i]
        if (split(name, part, "/") != 3) continue
        if (part[1] == "BenchmarkMatMulKernels") key = part[2] "/" part[3]
        else if (part[1] == "BenchmarkMatMulInt8") key = "int8/" part[2] "/" part[3]
        else continue
        kern[key] = nsop[name]
        kkey[m] = key
        kname[m++] = name
    }
    for (i = 0; i < m; i++) {
        printf "    \"%s\": {\"ns_op\": %s, \"macs_per_ns\": %s", kkey[i], \
            nsop[kname[i]], macs[kname[i]]
        if (kname[i] in azero) printf ", \"a_zero_pct\": %s", azero[kname[i]]
        printf "}%s\n", (i < m-1 ? "," : "")
    }
    printf "  },\n  \"conv_kernels\": {\n"
    # us/op and allocs/op of one convolution per kernel per shape, keyed
    # kernel/shape, or kernel/shape/tail for the block tails.
    c = 0
    for (i = 0; i < n; i++) {
        parts = split(order[i], part, "/")
        if ((parts == 3 || parts == 4) && part[1] == "BenchmarkConvKernels") cname[c++] = order[i]
    }
    for (i = 0; i < c; i++) {
        key = substr(cname[i], length("BenchmarkConvKernels/") + 1)
        printf "    \"%s\": {\"us_op\": %s, \"allocs_op\": %s}%s\n", key, \
            us[cname[i]], allocs[cname[i]], (i < c-1 ? "," : "")
    }
    printf "  },\n"
    speedup("avx2_speedup_vs_sse", "sse/", "avx2/")
    printf ",\n"
    speedup("int8_avx2_speedup_vs_noasm", "int8/noasm/", "int8/avx2/")
    # The headline warm-start and instrumentation numbers, each from its
    # drift-cancelling paired run.
    printf ",\n  \"warmstart_speedup\": %s,\n", \
        ("BenchmarkWarmstartPaired" in warm ? warm["BenchmarkWarmstartPaired"] : "null")
    rounds("energy_overhead_pct", nrg["BenchmarkMissionStepEnergyPaired"], 1.5)
    printf ",\n"
    rounds("stream_fprint_overhead_pct", strm["BenchmarkMissionStepStreamPaired"], 2)
    printf ",\n"
    series("stream_fprint_bare_ns_quantum", sbare["BenchmarkMissionStepStreamPaired"])
    printf ",\n"
    series("stream_fprint_instr_ns_quantum", sinstr["BenchmarkMissionStepStreamPaired"])
    printf ",\n"
    series("stream_fprint_overhead_us_quantum", sdiff["BenchmarkMissionStepStreamPaired"])
    printf ",\n  \"prev_pr\": %s,\n  \"vs_prev\": {\n", prevpr
    # ns/op deltas against the previous PR snapshot, for benchmarks present
    # in both (negative = faster now); informational, see the header.
    m = 0
    for (i = 0; i < n; i++)
        if ((order[i] in prevns) && prevns[order[i]] > 0) common[m++] = order[i]
    for (i = 0; i < m; i++) {
        name = common[i]
        printf "    \"%s\": {\"prev_ns_op\": %s, \"ns_op_delta_pct\": %.2f}%s\n", \
            name, prevns[name], (nsop[name] - prevns[name]) / prevns[name] * 100, \
            (i < m-1 ? "," : "")
    }
    printf "  }\n}\n"
}' "$prevpairs" "$raw" > "$out"

echo "benchmark snapshot written to $out"
