package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Handler returns the introspection mux:
//
//	/metrics        Prometheus text exposition
//	/metrics.json   JSON snapshot (counters/gauges plus histogram digests)
//	/trace.json     Chrome trace-event JSON of the span ring buffer, with
//	                run metadata (process name, run ID, trace epoch)
//	/blackbox.json  on-demand flight-recorder dump
//	/debug/vars     expvar (Go runtime memstats, cmdline)
//	/debug/pprof/   net/http/pprof profiles
//
// The handler reads live atomics; it is safe to serve while the
// co-simulation is running.
func (s *Suite) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.WriteMetricsJSON(w)
	})
	mux.HandleFunc("/stream.ndjson", func(w http.ResponseWriter, r *http.Request) {
		s.serveStream(w, r)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.WriteTrace(w, s.host())
	})
	mux.HandleFunc("/blackbox.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		rec := s.rec()
		if rec != nil {
			rec.ManualDumps.Inc()
		}
		rec.DumpTo(w, "manual")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "rose observability\n\n"+
			"/metrics        Prometheus text format (per-mission series + aggregates)\n"+
			"/metrics.json   JSON snapshot with run metadata\n"+
			"/stream.ndjson  live per-quantum records (NDJSON)\n"+
			"/trace.json     Chrome trace events (load in Perfetto)\n"+
			"/blackbox.json  on-demand flight-recorder dump\n"+
			"/debug/vars     expvar\n"+
			"/debug/pprof/   pprof profiles\n")
	})
	return mux
}

// WriteMetricsJSON renders the /metrics.json body: every metric (aggregate
// plus labeled per-scope samples) and a `meta` object carrying the run
// metadata WriteTrace already stamps — run ID, host, and the SetMeta labels
// (gemm_kernel, precision, ...) — so a JSON scrape is self-describing.
// Nil-safe (empty snapshot, no meta).
func (s *Suite) WriteMetricsJSON(w io.Writer) error {
	reg := s.reg()
	if reg == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	out := reg.jsonSnapshot()
	meta := map[string]string{}
	// Like WriteTrace: a server-side suite reports the run it adopted from
	// the wire, so both hosts' scrapes carry the same run_id.
	runID := s.Run.RunID()
	if adopted := s.EnvServer.SeenRun(); adopted != 0 {
		runID = adopted
	}
	if runID != 0 {
		meta["run_id"] = string(appendHex16(nil, runID))
	}
	if s.Host != "" {
		meta["host"] = s.Host
	}
	for _, kv := range s.Meta() {
		meta[kv[0]] = kv[1]
	}
	out["meta"] = meta
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// streamHeartbeat is how long /stream.ndjson waits for a record before
// emitting a keepalive line, so an idle mission still proves the link is
// alive and surfaces the subscriber's drop count.
const streamHeartbeat = time.Second

// serveStream is the /stream.ndjson handler: it subscribes to the suite's
// stream bus and relays quantum records as StreamLines, one JSON object
// per line. The subscription is bounded and drop-counting — a slow reader
// loses records (its `dropped` stamp grows) but can never stall the
// mission. ?buf=N sizes the subscriber's buffer, N in [1, MaxStreamBuf]
// (default DefaultStreamBuf); anything else is a 400.
func (s *Suite) serveStream(w http.ResponseWriter, r *http.Request) {
	if s == nil || s.Bus == nil {
		http.Error(w, "stream bus unavailable", http.StatusServiceUnavailable)
		return
	}
	buf := DefaultStreamBuf
	if v := r.URL.Query().Get("buf"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > MaxStreamBuf {
			http.Error(w, fmt.Sprintf("buf must be an integer in [1, %d]", MaxStreamBuf), http.StatusBadRequest)
			return
		}
		buf = n
	}
	sub := s.Bus.Subscribe(buf)
	defer s.Bus.Unsubscribe(sub)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	heartbeat := time.NewTicker(streamHeartbeat)
	defer heartbeat.Stop()
	for {
		var line StreamLine
		select {
		case <-r.Context().Done():
			return
		case q := <-sub.C():
			line.QuantumRecord = &q
		case <-heartbeat.C:
			line.Heartbeat = true
		}
		line.Dropped = sub.Dropped()
		if err := enc.Encode(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Suite) reg() *Registry {
	if s == nil {
		return nil
	}
	return s.Registry
}

func (s *Suite) rec() *Recorder {
	if s == nil {
		return nil
	}
	return s.Recorder
}

func (s *Suite) host() string {
	if s == nil {
		return ""
	}
	return s.Host
}

// IntrospectionServer is a running metrics/introspection HTTP endpoint.
type IntrospectionServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve starts the introspection server on addr (e.g. ":9090" or
// "127.0.0.1:0") and serves in a background goroutine until Close.
func (s *Suite) Serve(addr string) (*IntrospectionServer, error) {
	return s.ServeContext(context.Background(), addr)
}

// ServeContext is Serve bound to a context: cancellation closes the server
// and releases the listener, so sweep repetitions that spin up a suite per
// run cannot leak sockets. Close remains valid (and idempotent) after
// cancellation.
func (s *Suite) ServeContext(ctx context.Context, addr string) (*IntrospectionServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	i := &IntrospectionServer{ln: ln, srv: srv, done: make(chan struct{})}
	go func() {
		defer close(i.done)
		srv.Serve(ln)
	}()
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				srv.Close()
			case <-i.done:
			}
		}()
	}
	return i, nil
}

// Addr returns the bound listen address.
func (i *IntrospectionServer) Addr() string { return i.ln.Addr().String() }

// Done is closed once the serve loop has fully stopped (listener closed,
// no goroutine left behind).
func (i *IntrospectionServer) Done() <-chan struct{} { return i.done }

// Close stops the server and waits for the serve loop to exit, so the
// listener is guaranteed released when it returns.
func (i *IntrospectionServer) Close() error {
	err := i.srv.Close()
	<-i.done
	return err
}
