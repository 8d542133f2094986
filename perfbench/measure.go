package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric the benchmark reports. BENCHMARK.json at the
// repository root lists the same definitions; perfbench_test.go keeps the
// two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the untraced metrics every workload reports (--trace 0).
// Bounds are the share of the parent's median a metric may worsen by.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cosim_mhz", Unit: "MHz", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_sim_s", Unit: "ms", Better: "lower", Bound: 0.2},
	{Name: "allocs_per_quantum", Unit: "count", Better: "lower", Bound: 0.1},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "ok_pct", Unit: "%", Better: "higher", Bound: 0.01},
}

// perLayer are the traced-run metrics every workload reports (--trace 1).
// A layer a workload never enters reads 0 here. Host times that exist only
// on some workloads (render frame time, forward-pass percentiles, RPC
// latency, wire time, snapshot costs, training time) are printed in the
// traced run's layer table instead: as JSON values they would read a
// constant 0 on the other workloads.
var perLayer = []metricDef{
	{Name: "core.quantum_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.quantum_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.quanta", Unit: "count", Better: "higher"},
	{Name: "core.self_us_per_quantum", Unit: "us", Better: "lower"},
	{Name: "core.overlap_wait_pct", Unit: "%", Better: "lower"},
	{Name: "env.step_us_per_quantum", Unit: "us", Better: "lower"},
	{Name: "env.frames_per_quantum", Unit: "count", Better: "lower"},
	{Name: "env.io_us_per_quantum", Unit: "us", Better: "lower"},
	{Name: "render.frames", Unit: "count", Better: "higher"},
	{Name: "render.share_pct", Unit: "%", Better: "lower"},
	{Name: "soc.step_us_per_quantum", Unit: "us", Better: "lower"},
	{Name: "soc.engine_us_per_quantum", Unit: "us", Better: "lower"},
	{Name: "bridge.xfer_us_per_quantum", Unit: "us", Better: "lower"},
	{Name: "bridge.packets_per_quantum", Unit: "count", Better: "lower"},
	{Name: "dnn.forward_pct", Unit: "%", Better: "lower"},
	{Name: "dnn.inferences", Unit: "count", Better: "higher"},
	{Name: "packet.rpcs_per_quantum", Unit: "count", Better: "lower"},
	{Name: "packet.wire_pct", Unit: "%", Better: "lower"},
	{Name: "packet.bytes_per_quantum", Unit: "B", Better: "lower"},
	{Name: "packet.io_calls_per_quantum", Unit: "count", Better: "lower"},
	{Name: "packet.retries", Unit: "count", Better: "lower"},
	{Name: "obs.trace_events_per_quantum", Unit: "count", Better: "lower"},
	{Name: "snapshot.image_kib", Unit: "KiB", Better: "lower"},
	{Name: "soc.sim_cycles", Unit: "count", Better: "higher"},
	{Name: "soc.sim_activity_pct", Unit: "%", Better: "higher"},
	{Name: "soc.sim_energy_mj", Unit: "mJ", Better: "lower"},
	{Name: "app.sim_inferences", Unit: "count", Better: "higher"},
	{Name: "env.sim_collisions", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cpuTime returns the process's user+system CPU time over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs returns the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// cpuSteal reads the host's aggregate CPU time and the part of it the
// hypervisor gave to other guests (/proc/stat "steal"), in clock ticks.
func cpuSteal() (total, steal uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quantileNs is quantile over nanosecond samples, in microseconds.
func quantileNs(ns []int64, q float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e3
	}
	return quantile(xs, q)
}
