package obs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (string, *http.Response) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d\n%s", path, resp.StatusCode, body)
	}
	return string(body), resp
}

func TestIntrospectionEndpoints(t *testing.T) {
	s := New(64)
	// Exercise a few instruments so the exposition carries real values.
	now := time.Now()
	s.Core.ObserveRTL(now.Add(-2 * time.Millisecond))
	s.Core.EndQuantum(now.Add(-5*time.Millisecond), TelemetrySample{})
	s.RPC.BytesIn.Add(1024)
	s.RPC.BytesOut.Add(512)
	s.Bridge.RxBytes.Set(300)
	s.Bridge.RxBytesHWM.SetMax(300)

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// /metrics must be parseable Prometheus text exposition covering the
	// quantum-phase histograms, RPC byte counters, and bridge gauges.
	text, resp := get(t, srv, "/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	samples := parsePrometheus(t, text)
	for _, want := range []string{
		"rose_cosim_quantum_seconds_count",
		"rose_cosim_rtl_quantum_seconds_count",
		"rose_cosim_env_quantum_seconds_count",
		"rose_cosim_exchange_seconds_count",
		"rose_cosim_overlap_stall_seconds_count",
		"rose_rpc_bytes_in_total",
		"rose_rpc_bytes_out_total",
		"rose_bridge_rx_queue_bytes",
		"rose_bridge_tx_queue_bytes",
		"rose_bridge_rx_queue_bytes_hwm",
		"rose_soc_cycles_total",
		"rose_app_inference_latency_seconds_count",
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if samples["rose_rpc_bytes_in_total"] != 1024 {
		t.Errorf("rose_rpc_bytes_in_total = %v", samples["rose_rpc_bytes_in_total"])
	}
	if samples["rose_bridge_rx_queue_bytes_hwm"] != 300 {
		t.Errorf("rx hwm = %v", samples["rose_bridge_rx_queue_bytes_hwm"])
	}
	if samples["rose_cosim_rtl_quantum_seconds_count"] != 1 {
		t.Errorf("rtl quantum count = %v", samples["rose_cosim_rtl_quantum_seconds_count"])
	}

	// /metrics.json must be a JSON object.
	body, _ := get(t, srv, "/metrics.json")
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json invalid: %v", err)
	}
	if _, ok := snap["rose_cosim_quantum_seconds"]; !ok {
		t.Error("/metrics.json missing quantum histogram digest")
	}

	// /trace.json must validate as Chrome trace-event JSON.
	body, _ = get(t, srv, "/trace.json")
	events := validateChromeTrace(t, []byte(body))
	if len(events) != 2 {
		t.Errorf("trace has %d events, want 2", len(events))
	}

	// expvar and pprof must be mounted.
	body, _ = get(t, srv, "/debug/vars")
	if !strings.Contains(body, "memstats") {
		t.Error("/debug/vars missing memstats")
	}
	body, _ = get(t, srv, "/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index missing goroutine profile")
	}
	body, _ = get(t, srv, "/")
	if !strings.Contains(body, "/metrics") {
		t.Error("index page missing endpoint listing")
	}
}

func TestSuiteServe(t *testing.T) {
	s := New(0) // metrics only: /trace.json stays valid but empty
	is, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer is.Close()
	resp, err := http.Get("http://" + is.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "rose_cosim_quanta_total") {
		t.Errorf("served metrics missing quanta counter:\n%s", body)
	}
	tb, err := http.Get("http://" + is.Addr() + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Body.Close()
	traceBody, _ := io.ReadAll(tb.Body)
	validateChromeTrace(t, traceBody)
}

func TestNilSuite(t *testing.T) {
	// A nil suite is the disabled configuration: summaries and sub-bundles
	// must be inert, matching the nil-sink overhead contract.
	var s *Suite
	if sum := s.Summary(); sum.Quanta != 0 {
		t.Error("nil suite summary must be zero")
	}
	var c *CoreObs
	st := c.Start()
	if !st.IsZero() {
		t.Error("nil CoreObs.Start must return the zero time (no clock read)")
	}
	c.ObserveRTL(st)
	c.ObserveEnv(st)
	c.ObserveExchange(st)
	c.ObserveStall(st)
	c.EndQuantum(st, TelemetrySample{})
}

// TestSuiteParent: a single-mission run's instrument set is the suite's
// own unlabeled bundles plus its trace context and log; a nil suite yields
// nil (observability off), like Mission.
func TestSuiteParent(t *testing.T) {
	s := New(0)
	p := s.Parent()
	if p.ID != "" || p.Scope != nil {
		t.Errorf("parent set is labeled: id %q scope %v", p.ID, p.Scope)
	}
	if p.Core != s.Core || p.RPC != s.RPC || p.Bridge != s.Bridge || p.SoC != s.SoC || p.App != s.App {
		t.Error("parent set does not carry the suite's own bundles")
	}
	if p.Run != s.Run || p.Log != s.Log {
		t.Error("parent set does not reach the suite's trace context and log")
	}
	if m := s.Mission(""); m.Run != s.Run || m.Log != s.Log {
		t.Error("mission scope does not reach the suite's trace context and log")
	}
	var nilSuite *Suite
	if nilSuite.Parent() != nil {
		t.Error("nil suite must yield a nil parent set")
	}
}

func TestSuiteSummary(t *testing.T) {
	s := New(16)
	base := time.Now().Add(-10 * time.Millisecond)
	s.Core.ObserveEnv(base)                    // ~10ms concurrent env work
	s.Core.ObserveRTL(base)                    // ~10ms rtl work
	s.Core.EndQuantum(base, TelemetrySample{}) // ~10ms total
	s.App.Inferences.Inc()
	s.App.Latency.Observe(3 * time.Millisecond)
	// The RPC client counts batched fetches in RoundTrips too, so the
	// summary reports RoundTrips alone.
	s.RPC.RoundTrips.Add(5)
	s.RPC.BatchedFetches.Inc()
	s.Bridge.RxBytesHWM.SetMax(2048)

	sum := s.Summary()
	if sum.Quanta != 1 {
		t.Errorf("quanta = %d", sum.Quanta)
	}
	if sum.MeanQuantumSec < 0.009 || sum.MeanQuantumSec > 0.1 {
		t.Errorf("mean quantum = %v", sum.MeanQuantumSec)
	}
	if sum.RTLShare < 0.5 || sum.RTLShare > 1.5 {
		t.Errorf("rtl share = %v", sum.RTLShare)
	}
	if sum.RPCRoundTrips != 5 {
		t.Errorf("rpc round-trips = %d, want 4 sync + 1 batched", sum.RPCRoundTrips)
	}
	if sum.BridgeRxHWM != 2048 {
		t.Errorf("rx hwm = %d", sum.BridgeRxHWM)
	}
	if sum.Inferences != 1 || sum.MeanInferSec < 0.002 {
		t.Errorf("inference digest = %d/%v", sum.Inferences, sum.MeanInferSec)
	}
	if sum.TraceEvents != 3 {
		t.Errorf("trace events = %d, want 3", sum.TraceEvents)
	}
}

func TestBlackboxEndpoint(t *testing.T) {
	s := New(16)
	s.Recorder.SetPath("") // no file side effects; the endpoint streams
	s.Core.EndQuantum(time.Now().Add(-time.Millisecond), TelemetrySample{PosX: 1})

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, resp := get(t, srv, "/blackbox.json")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var bb blackbox
	if err := json.Unmarshal([]byte(body), &bb); err != nil {
		t.Fatalf("/blackbox.json invalid: %v\n%s", err, body)
	}
	if bb.Schema != "rose-blackbox/2" || bb.Reason != "manual" {
		t.Errorf("schema/reason = %q/%q", bb.Schema, bb.Reason)
	}
	if len(bb.Quanta) != 1 || bb.Quanta[0].Telemetry.PosX != 1 {
		t.Errorf("quanta = %+v", bb.Quanta)
	}
	if s.Recorder.ManualDumps.Value() != 1 {
		t.Errorf("manual dumps = %d", s.Recorder.ManualDumps.Value())
	}
	get(t, srv, "/blackbox.json")
	if s.Recorder.ManualDumps.Value() != 2 {
		t.Errorf("manual dumps = %d after second scrape", s.Recorder.ManualDumps.Value())
	}
}

func TestHandlerConcurrentScrape(t *testing.T) {
	// Every endpoint must be scrapeable while the run is actively recording
	// — the live-introspection contract (-race is the real assertion here).
	s := New(256)
	s.Recorder.SetPath("")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	runDone := make(chan struct{})
	go func() { // the "synchronizer": records quanta, spans, logs, faults
		defer close(runDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			start := s.Core.BeginQuantum()
			s.Core.ObserveRTL(start)
			s.Core.ObserveExchange(start)
			s.Core.EndQuantum(start, TelemetrySample{Frame: int64(i)})
			s.Log.Info("quantum", Int("i", int64(i)))
			s.Bridge.RxBytes.Set(int64(i % 512))
			if i%64 == 63 {
				s.Core.Fault("synthetic divergence")
			}
		}
	}()

	paths := []string{"/metrics", "/metrics.json", "/trace.json", "/blackbox.json"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				body, _ := get(t, srv, path)
				switch path {
				case "/trace.json":
					validateChromeTrace(t, []byte(body))
				case "/metrics.json", "/blackbox.json":
					var v map[string]any
					if err := json.Unmarshal([]byte(body), &v); err != nil {
						t.Errorf("%s mid-run invalid: %v", path, err)
					}
				}
			}
		}(paths[g])
	}
	wg.Wait() // scrapers race against a live recorder for their whole run
	close(stop)
	<-runDone
}

func TestServeContextCancel(t *testing.T) {
	s := New(0)
	ctx, cancel := context.WithCancel(context.Background())
	is, err := s.ServeContext(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := is.Addr()
	if _, err := http.Get("http://" + addr + "/metrics"); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case <-is.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop did not stop on context cancel")
	}
	// The listener must actually be released: the port is rebindable.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port still held after cancel: %v", err)
	}
	ln.Close()
	// Close after cancellation stays valid and idempotent.
	if err := is.Close(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Close after cancel: %v", err)
	}
	is.Close()
}
