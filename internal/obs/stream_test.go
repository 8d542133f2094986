package obs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestEndQuantumPublishAllocs: closing a quantum with a draining stream
// subscriber attached builds one record and hands it to the flight
// recorder and the bus without allocating — the fingerprint stays a
// uint64 until JSON encoding.
func TestEndQuantumPublishAllocs(t *testing.T) {
	s := New(0)
	sub := s.Bus.Subscribe(DefaultStreamBuf)
	done := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-sub.C():
			case <-done:
				return
			}
		}
	}()
	defer func() {
		close(done)
		<-drained
		s.Bus.Unsubscribe(sub)
	}()
	s.Core.ObserveFingerprint(0xd9ad42654a6238e9)
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Core.BeginQuantum()
		s.Core.EndQuantum(start, 0, TelemetrySample{PosX: 1})
	})
	if allocs != 0 {
		t.Errorf("EndQuantum with a subscriber: %v allocs/op, want 0", allocs)
	}
	if s.Bus.Frames.Value() == 0 {
		t.Error("no record was published")
	}
}

// TestStreamBufBound: /stream.ndjson rejects a ?buf= outside [1,
// MaxStreamBuf] with a 400 naming the bound, instead of sizing a channel
// from it; an absent buf still streams.
func TestStreamBufBound(t *testing.T) {
	s := New(0)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// A request that streams instead of failing must not hang the test.
	client := &http.Client{Timeout: 5 * time.Second}
	bound := "[1, " + strconv.Itoa(MaxStreamBuf) + "]"
	for _, buf := range []string{"1099511627776", strconv.Itoa(MaxStreamBuf + 1), "0", "-3", "lots"} {
		resp, err := client.Get(srv.URL + "/stream.ndjson?buf=" + buf)
		if err != nil {
			t.Fatalf("buf=%s: %v", buf, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), bound) {
			t.Errorf("buf=%s: %d %q, want 400 naming %s", buf, resp.StatusCode, body, bound)
		}
	}
	if s.Bus.nsubs.Load() != 0 {
		t.Error("a rejected request left a subscriber attached")
	}
	for _, query := range []string{"", "?buf=" + strconv.Itoa(MaxStreamBuf)} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/stream.ndjson"+query, nil)
		got := make(chan *http.Response, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("stream%s: %v", query, err)
			}
			got <- resp
		}()
		// Headers leave with the first line: publish until one does.
		var resp *http.Response
	wait:
		for {
			s.Bus.Publish(QuantumRecord{Seq: 1})
			select {
			case resp = <-got:
				break wait
			case <-time.After(time.Millisecond):
			}
		}
		if resp != nil {
			if resp.StatusCode != http.StatusOK {
				t.Errorf("stream%s: status %d, want 200", query, resp.StatusCode)
			}
			resp.Body.Close()
		}
		cancel()
	}
}
