// Command perfbench is the co-simulator's benchmark. It runs one named
// workload at a seed for a fixed measuring time, checks every mission's
// outputs, and prints the end-to-end metrics (untraced) or, with --trace 1,
// the per-layer metrics of a traced run. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload dnn-flights --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 20, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "traced run's Chrome trace file (default .bench_build/traces/<workload>-seed<n>.json)")
	genRefs := fs.String("gen-refs", "", "compute the stored references and write them to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *genRefs != "" {
		if err := generateRefs(*genRefs); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d %s\n",
		w.name, *seed, *seconds, *trace, procs, runtime.Version())

	var (
		res *result
		err error
	)
	if *trace == 1 {
		out := *traceOut
		if out == "" {
			out = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		}
		res, err = runTraced(w, *seed, *seconds, out, stdout)
	} else {
		res, err = runUntraced(w, *seed, *seconds, start, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// newChecker selects the output check for a seed: the stored references
// when the seed has them, otherwise the workload's cross-check.
func newChecker(w *workload, seed int64, out io.Writer) (*checker, error) {
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	c := &checker{workload: w.name, out: out}
	if stored := refs.lookup(w.name, seed); stored != nil {
		c.want, c.how, c.stored = stored, fmt.Sprintf("references(seed %d)", seed), true
		return c, nil
	}
	c.want, c.how, err = crossCheck(w, seed)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// sample is one timed execution of a mission.
type sample struct {
	wall, cpu time.Duration
	allocs    uint64
	refs      []ref
	err       error
}

// timing collects the timed phase: every execution of every mission.
type timing struct {
	missions []mission
	first    []outcome  // first successful outcome per mission
	ok       []bool     // whether first holds an outcome
	samples  [][]sample // per mission, one per pass
	passes   int
	elapsed  time.Duration
}

func newTiming(ms []mission) *timing {
	return &timing{
		missions: ms,
		first:    make([]outcome, len(ms)),
		ok:       make([]bool, len(ms)),
		samples:  make([][]sample, len(ms)),
	}
}

// add records one execution of mission i.
func (tm *timing) add(i int, out outcome, s sample) {
	tm.samples[i] = append(tm.samples[i], s)
	if s.err == nil && !tm.ok[i] {
		tm.first[i], tm.ok[i] = out, true
	}
}

// timedPhase flies the mission list in passes until the measuring time is
// up; the pass in progress finishes. Each execution is timed on its own.
func timedPhase(ms []mission, st *setupState, seconds float64) *timing {
	tm := newTiming(ms)
	limit := time.Duration(seconds * float64(time.Second))
	t0 := time.Now()
	for tm.passes == 0 || time.Since(t0) < limit {
		for i, m := range ms {
			a0 := mallocs()
			c0 := cpuTime()
			w0 := time.Now()
			out, err := fly(m, st)
			wall := time.Since(w0)
			cpu := cpuTime() - c0
			allocs := mallocs() - a0
			tm.add(i, out, sample{wall: wall, cpu: cpu, allocs: allocs, refs: out.refs, err: err})
		}
		tm.passes++
	}
	tm.elapsed = time.Since(t0)
	return tm
}

// verify runs every execution through the checker.
func (tm *timing) verify(c *checker) {
	for p := 0; p < tm.passes; p++ {
		for i, m := range tm.missions {
			s := tm.samples[i][p]
			if s.err != nil {
				c.fail(m.name, s.err)
				continue
			}
			c.check(m.name, s.refs)
		}
	}
}

// rates are the per-mission-median rates of a timing.
type rates struct {
	mhz, cpuMsPerSimS, allocsPerQuantum float64
	quanta                              uint64
	simSec                              float64
	hostSec                             float64
}

// rates weighs each mission by its work: the median over passes of each
// mission's host time, CPU time and allocations, summed over the list.
func (tm *timing) rates() rates {
	var r rates
	var cycles uint64
	var wall, cpu, allocs float64
	for i := range tm.missions {
		if !tm.ok[i] {
			continue
		}
		var ws, cs, as []float64
		for _, s := range tm.samples[i] {
			if s.err != nil {
				continue
			}
			ws = append(ws, s.wall.Seconds())
			cs = append(cs, s.cpu.Seconds())
			as = append(as, float64(s.allocs))
		}
		o := tm.first[i]
		cycles += o.cycles
		r.quanta += o.quanta
		r.simSec += o.simSec
		wall += median(ws)
		cpu += median(cs)
		allocs += median(as)
	}
	r.hostSec = wall
	if wall > 0 {
		r.mhz = float64(cycles) / (wall * 1e6)
	}
	if r.simSec > 0 {
		r.cpuMsPerSimS = cpu * 1e3 / r.simSec
	}
	if r.quanta > 0 {
		r.allocsPerQuantum = allocs / float64(r.quanta)
	}
	return r
}

// counts returns the executions and quanta the timed phase flew.
func (tm *timing) counts() (missions int, quanta uint64) {
	for i := range tm.missions {
		for _, s := range tm.samples[i] {
			missions++
			if s.err == nil && tm.ok[i] {
				quanta += tm.first[i].quanta
			}
		}
	}
	return missions, quanta
}

// simulated sums one pass's simulated statistics.
func (tm *timing) simulated() simStats {
	var s simStats
	for i := range tm.missions {
		if tm.ok[i] {
			s.add(tm.first[i].sim)
		}
	}
	return s
}

func printSimulated(w io.Writer, s simStats) {
	act := 0.0
	if s.cycles > 0 {
		act = 100 * float64(s.accelCycles) / float64(s.cycles)
	}
	fmt.Fprintf(w, "simulated (one pass): soc.sim_cycles=%d soc.sim_activity_pct=%.3f soc.sim_energy_mj=%.4f app.sim_inferences=%d app.sim_latency_ms_p50=%.4f env.sim_collisions=%d env.sim_mission_s=%.3f\n",
		s.cycles, act, float64(s.energyPJ)*1e-9, s.inferences, median(s.latencyMs), s.collisions, s.missionSec)
}

func runUntraced(w *workload, seed int64, seconds float64, start time.Time, stdout io.Writer) (*result, error) {
	setups := make([]float64, w.setupReps)
	var st *setupState
	for i := range setups {
		st.close()
		t0 := time.Now()
		if i == 0 {
			t0 = start // the first set-up counts from process start
		}
		var err error
		if st, err = setUp(w, seed, nil, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer st.close()
	fmt.Fprintf(stdout, "setup: %d set-ups, median %.3f s %v\n", len(setups), median(setups), fmtSeconds(setups))

	tot0, steal0, stealErr := cpuSteal()
	tm := timedPhase(w.missions(seed), st, seconds)
	tot1, steal1, err := cpuSteal()
	missions, quanta := tm.counts()
	r := tm.rates()
	fmt.Fprintf(stdout, "timed: %d passes, %d missions, %d quanta, %.1f simulated s per pass, %.2f s host\n",
		tm.passes, missions, quanta, r.simSec, tm.elapsed.Seconds())
	if stealErr == nil && err == nil && tot1 > tot0 {
		// Time the hypervisor ran other guests on this VM's CPUs; a run
		// with a high share measured a contended host.
		fmt.Fprintf(stdout, "host: cpu steal %.1f%% during the timed phase\n", 100*float64(steal1-steal0)/float64(tot1-tot0))
	}

	c, err := newChecker(w, seed, stdout)
	if err != nil {
		return nil, err
	}
	tm.verify(c)
	fmt.Fprintf(stdout, "check: %s, %d/%d missions ok\n", c.how, c.attempts-c.failures, c.attempts)
	printSimulated(stdout, tm.simulated())

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m := map[string]metricValue{}
	set := func(name string, v float64) {
		for _, d := range endToEnd {
			if d.Name == name {
				m[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
		panic("undefined metric " + name)
	}
	set("setup_s", median(setups))
	set("cosim_mhz", r.mhz)
	set("cpu_ms_per_sim_s", r.cpuMsPerSimS)
	set("allocs_per_quantum", r.allocsPerQuantum)
	set("peak_rss_mb", rss)
	set("ok_pct", c.okPct())
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "%-20s %14.6f %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
	if c.attempts == 0 {
		return nil, errors.New("no mission was attempted")
	}
	return &result{Correct: c.failures == 0, Attempted: c.attempts, Failed: c.failures, Metrics: m}, nil
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
