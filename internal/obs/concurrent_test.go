package obs

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentScopedRegistryAndStream races the fleet-observability
// surfaces against each other the way a live sweep does: N goroutines
// creating mission scopes and hammering scoped instruments while publishing
// quantum records, concurrent with HTTP scrapers on /metrics, /metrics.json,
// and /stream.ndjson. Run under -race (scripts/check.sh does); the final
// aggregate check also catches lost increments.
func TestConcurrentScopedRegistryAndStream(t *testing.T) {
	suite := New(0)
	suite.Host = "race-test"
	srv, err := suite.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	const missions = 8
	const incs = 500

	var wg sync.WaitGroup
	scrape := func(path string) {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
			_, _ = bufio.NewReader(resp.Body).ReadString(0) // drain
			resp.Body.Close()
		}
	}
	wg.Add(2)
	go scrape("/metrics")
	go scrape("/metrics.json")

	// A live stream reader: subscribes over HTTP and reads frames while the
	// publishers below are running; the context is canceled once they
	// finish, which unsubscribes server-side.
	ctx, cancel := context.WithCancel(context.Background())
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		req, _ := http.NewRequestWithContext(ctx, "GET", base+"/stream.ndjson?buf=16", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			// The publishers can finish (and cancel) before the request
			// even connects; that is not a failure of the stream.
			if !errors.Is(err, context.Canceled) {
				t.Errorf("GET /stream.ndjson: %v", err)
			}
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if !strings.HasPrefix(sc.Text(), "{") {
				t.Errorf("stream line not JSON: %q", sc.Text())
				return
			}
		}
	}()

	wg.Add(missions)
	for m := 0; m < missions; m++ {
		go func(m int) {
			defer wg.Done()
			mo := suite.Mission(fmt.Sprintf("race-m%d", m), [2]string{"map", "tunnel"})
			c := mo.Scope.Counter("race_ops_total", "racing counter")
			g := mo.Scope.Gauge("race_level", "racing gauge")
			h := mo.Scope.Histogram("race_lat_ns", "racing histogram", nil)
			for i := 0; i < incs; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(time.Duration(i) * 100)
				suite.Bus.Publish(QuantumRecord{Mission: mo.ID, Seq: uint64(i)})
			}
		}(m)
	}
	wg.Wait()
	cancel()
	<-streamDone

	// Export-time aggregation must see every increment from every scope.
	if got := suite.Registry.AggCounter("race_ops_total"); got != missions*incs {
		t.Errorf("aggregate race_ops_total = %d, want %d", got, missions*incs)
	}
	var text strings.Builder
	suite.Registry.WritePrometheus(&text)
	if !strings.Contains(text.String(), `race_ops_total{mission_id="race-m0"`) {
		t.Error("scoped series missing from /metrics exposition")
	}
}
