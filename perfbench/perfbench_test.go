package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/packet"
	"repro/internal/soc"
)

// TestMain shrinks the training registry: these tests compare two paths of
// the same program, so controller quality does not matter.
func TestMain(m *testing.M) {
	dnn.RegistryTrainPerClass, dnn.RegistryValPerClass = 12, 6
	os.Exit(m.Run())
}

// pick returns the named missions of a workload, with their flights cut to
// maxSimSec when positive.
func pick(t *testing.T, w *workload, seed int64, maxSimSec float64, names ...string) []mission {
	t.Helper()
	var out []mission
	for _, m := range w.missions(seed) {
		for _, n := range names {
			if m.name == n {
				if maxSimSec > 0 {
					m.spec.MaxSimSec = maxSimSec
				}
				out = append(out, m)
			}
		}
	}
	if len(out) != len(names) {
		t.Fatalf("%s: found %d of missions %v", w.name, len(out), names)
	}
	return out
}

// TestTracedMatchesUntracedInProcess: a mission flown through the wrapped
// layers ends with the fingerprint, cycles, inferences, collisions and
// energy of the same mission flown through the product entry point.
func TestTracedMatchesUntracedInProcess(t *testing.T) {
	const seed = 3
	cases := []struct {
		workload  string
		maxSimSec float64
		missions  []string
	}{
		{"dnn-flights", 2.5, []string{"tunnel-B-yaw-20", "tunnel-A-int8"}},
		{"patrol-forks", 0, []string{"storm-fork1", "swarm"}},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			w := workloadByName(tc.workload)
			st, err := setUp(w, seed, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			tr := newTracedRun(st, newTracer())
			for _, m := range pick(t, w, seed, tc.maxSimSec, tc.missions...) {
				want, err := fly(m, st)
				if err != nil {
					t.Fatalf("%s untraced: %v", m.name, err)
				}
				got, _, err := tr.flyTraced(m)
				if err != nil {
					t.Fatalf("%s traced: %v", m.name, err)
				}
				if d := diffRefs(want.refs, got.refs); len(d) > 0 {
					t.Errorf("%s: traced run differs: %v", m.name, d)
				}
			}
			if tr.main.quanta == 0 {
				t.Error("no quantum spans recorded")
			}
			if tr.main.replayMismatches != 0 {
				t.Errorf("%d replayed forward passes did not reproduce the logged output", tr.main.replayMismatches)
			}
			if w.model != "" && (len(tr.main.fp32Ns) == 0 || len(tr.main.int8Ns) == 0) {
				t.Errorf("replay counted %d fp32 and %d int8 forward passes, want both", len(tr.main.fp32Ns), len(tr.main.int8Ns))
			}
		})
	}
}

// TestTracedMatchesUntracedTCP: the same claim over the TCP topology, where
// the wrapped layers are the RPC clients; both also match the in-process
// flight (remote ≡ local).
func TestTracedMatchesUntracedTCP(t *testing.T) {
	const seed = 5
	w := workloadByName("tcp-1ms")
	st, err := setUp(w, seed, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	tr := newTracedRun(st, newTracer())
	m := pick(t, w, seed, 2, "tunnel-A-yaw-20")[0]
	local, err := experiments.RunMission(m.spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second flight runs on reset servers
		want, err := fly(m, st)
		if err != nil {
			t.Fatalf("untraced: %v", err)
		}
		got, _, err := tr.flyTraced(m)
		if err != nil {
			t.Fatalf("traced: %v", err)
		}
		if d := diffRefs([]ref{refOf(local)}, want.refs); len(d) > 0 {
			t.Errorf("flight %d: remote differs from in-process: %v", i, d)
		}
		if d := diffRefs(want.refs, got.refs); len(d) > 0 {
			t.Errorf("flight %d: traced differs from untraced: %v", i, d)
		}
	}
	if len(tr.main.rpcNs) == 0 || tr.main.ioCalls == 0 || tr.main.ioBytes == 0 || tr.main.traceEvents == 0 {
		t.Errorf("wire not measured: %d rpcs, %d io calls, %d bytes, %d trace events",
			len(tr.main.rpcNs), tr.main.ioCalls, tr.main.ioBytes, tr.main.traceEvents)
	}
	if len(tr.main.fp32Ns) == 0 || tr.main.replayMismatches != 0 {
		t.Errorf("replay over TCP: %d counted, %d mismatched", len(tr.main.fp32Ns), tr.main.replayMismatches)
	}
}

type (
	fakeEnv     struct{ env.Env }
	fakeEnvFB   struct{ fakeEnv }
	fakeEnvSB   struct{ fakeEnv }
	fakeEnvFBSB struct{ fakeEnv }
	fakeRTL     struct{ core.RTL }
	fakeRTLE    struct{ fakeRTL }
)

func (fakeEnvFB) FrameBytesInto(dst []byte) ([]byte, int, int)          { return dst, 0, 0 }
func (fakeEnvSB) FetchSensors([]packet.Type) ([]packet.Packet, error)   { return nil, nil }
func (fakeEnvFBSB) FrameBytesInto(dst []byte) ([]byte, int, int)        { return dst, 0, 0 }
func (fakeEnvFBSB) FetchSensors([]packet.Type) ([]packet.Packet, error) { return nil, nil }
func (fakeRTLE) EnergyBreakdown() soc.EnergyBreakdown                   { return soc.EnergyBreakdown{} }

// TestWrappersKeepOptionalInterfaces: the synchronizer type-asserts for the
// camera fast path, the sensor batcher and the energy view, so a wrapper
// must have each exactly when the wrapped value does.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	for _, e := range []env.Env{fakeEnv{}, fakeEnvFB{}, fakeEnvSB{}, fakeEnvFBSB{}} {
		w := wrapEnv(e, tr, nil)
		_, fb := e.(frameByter)
		_, wfb := w.(frameByter)
		_, sb := e.(env.SensorBatcher)
		_, wsb := w.(env.SensorBatcher)
		if fb != wfb || sb != wsb {
			t.Errorf("%T: wrapper has FrameBytesInto=%v FetchSensors=%v, want %v %v", e, wfb, wsb, fb, sb)
		}
	}
	for _, r := range []core.RTL{fakeRTL{}, fakeRTLE{}} {
		_, er := r.(core.EnergyRTL)
		_, wer := wrapRTL(r, tr).(core.EnergyRTL)
		if er != wer {
			t.Errorf("%T: wrapper has EnergyBreakdown=%v, want %v", r, wer, er)
		}
	}
}

// TestSelfTimeSubtractsUnionOfChildren builds a quantum whose children
// overlap (the env worker beside the RTL step) and one child that starts
// before the quantum.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ivs := [][2]int64{{10, 40}, {30, 60}, {70, 80}, {95, 120}, {-5, 5}, {50, 55}}
	if got := unionNs(0, 100, ivs); got != 70 { // [0,5] [10,60] [70,80] [95,100]
		t.Errorf("unionNs = %d, want 70", got)
	}
	a := &layerAgg{}
	a.addQuantum(span{op: opQuantum, start: 0, end: 100}, []span{
		{op: opPull, tid: tidMain, start: 2, end: 8},
		{op: opRTLStep, tid: tidMain, start: 10, end: 60},
		{op: opStepFrames, tid: tidWorker, start: 12, end: 50},
		{op: opTelemetry, tid: tidWorker, start: 50, end: 75},
	}, true)
	if a.selfNs != 100-6-65 {
		t.Errorf("self = %d ns, want 29", a.selfNs)
	}
	if a.waitNs != 15 { // the worker ends at 75, the RTL step at 60
		t.Errorf("overlap wait = %d ns, want 15", a.waitNs)
	}
	if a.opNs[opStepFrames] != 38 || a.opCalls[opRTLStep] != 1 {
		t.Errorf("per-op sums wrong: %v", a.opNs)
	}
}

// TestMetricDefinitions: names are unique and well formed, and
// BENCHMARK.json lists exactly the metrics the program prints.
func TestMetricDefinitions(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("malformed metric %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(b.EndToEnd); !bytes.Equal(got, mustJSON(t, endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end = %s, program prints %s", got, mustJSON(t, endToEnd))
	}
	if got, _ := json.Marshal(b.PerLayer); !bytes.Equal(got, mustJSON(t, perLayer)) {
		t.Errorf("BENCHMARK.json per_layer = %s, program prints %s", got, mustJSON(t, perLayer))
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCorruptedReferenceFailsCheck: one wrong field in a stored reference
// takes ok_pct below 100, and the report names the workload, the mission
// and the field.
func TestCorruptedReferenceFailsCheck(t *testing.T) {
	var tbl refTable
	if err := json.Unmarshal(refsJSON, &tbl); err != nil {
		t.Fatal(err)
	}
	r := tbl["patrol-forks"]["1"]["calm-fork0"]
	if len(r) != 1 {
		t.Fatalf("no reference for patrol-forks/1/calm-fork0")
	}
	r[0].EnergyPJ++
	saved := refsJSON
	defer func() { refsJSON = saved }()
	refsJSON = mustJSON(t, tbl)

	var out bytes.Buffer
	res, err := runUntraced(workloadByName("patrol-forks"), 1, 0.001, time.Now(), &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok := res.Metrics["ok_pct"].Value; ok >= 100 || res.Correct || res.Failed == 0 {
		t.Errorf("ok_pct = %v, correct = %v, failed = %d; want a failed check", ok, res.Correct, res.Failed)
	}
	if s := out.String(); !strings.Contains(s, "mismatch: workload=patrol-forks mission=calm-fork0") || !strings.Contains(s, "energy_pj") {
		t.Errorf("report does not name the mission and field:\n%s", s)
	}
}
