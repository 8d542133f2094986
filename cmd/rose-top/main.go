// Command rose-top attaches to a running rose-sim or rose-sweep
// introspection endpoint and renders a live multi-mission terminal view from
// its /stream.ndjson telemetry feed — top(1) for a co-simulated fleet.
//
// Example:
//
//	rose-sweep -exp figure12 -metrics :9100 &
//	rose-top -url http://127.0.0.1:9100
//
// Each mission's latest quantum record becomes one row: quantum index,
// simulated time, pose, collisions, engine cycles, power, inference
// progress, quantum wall time, and the rolling determinism fingerprint.
// The table refreshes in place at -interval; heartbeat lines keep the link
// visibly alive while a mission is idle. A slow terminal drops records
// (the header's dropped count grows) but never stalls the simulation —
// backpressure ends at the server's bounded per-subscriber buffer (sized
// with -buf).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:9100", "introspection endpoint of the running sim/sweep")
		interval = flag.Duration("interval", time.Second, "screen refresh interval")
		buf      = flag.Int("buf", 0, fmt.Sprintf("server-side subscriber record buffer, 1..%d (0 = server default, %d)", obs.MaxStreamBuf, obs.DefaultStreamBuf))
		frames   = flag.Uint64("frames", 0, "exit after this many telemetry frames (0 = run until the stream ends)")
		plain    = flag.Bool("plain", false, "append refreshes instead of redrawing in place (for logs/pipes)")
	)
	flag.Parse()

	streamURL := strings.TrimRight(*url, "/") + "/stream.ndjson"
	if *buf > 0 {
		streamURL += fmt.Sprintf("?buf=%d", *buf)
	}
	resp, err := http.Get(streamURL)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		log.Fatalf("rose-top: %s: %s: %s", streamURL, resp.Status, strings.TrimSpace(string(body)))
	}

	if err := watch(resp.Body, os.Stdout, streamURL, *interval, *frames, *plain); err != nil {
		log.Fatal(err)
	}
}

// watch consumes the NDJSON stream, retaining the latest record per
// mission, and redraws the fleet table every interval. It returns when the
// stream ends (server shutdown), the record budget is spent, or a line
// fails to decode.
func watch(r io.Reader, w io.Writer, source string, interval time.Duration, maxFrames uint64, plain bool) error {
	latest := map[string]obs.QuantumRecord{}
	var seen, dropped uint64
	lastBeat := time.Now()

	redraw := func() {
		if !plain {
			fmt.Fprint(w, "\x1b[H\x1b[2J") // cursor home + clear screen
		}
		fmt.Fprintf(w, "rose-top · %s · %d frames (%d dropped) · heartbeat %s ago\n\n",
			source, seen, dropped, time.Since(lastBeat).Round(time.Second))
		recs := make([]obs.QuantumRecord, 0, len(latest))
		for _, q := range latest {
			recs = append(recs, q)
		}
		fmt.Fprint(w, telemetry.FleetStrip(recs))
		if plain {
			fmt.Fprintln(w)
		}
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	next := time.Now().Add(interval)
	for sc.Scan() {
		line, err := decodeLine(sc.Bytes())
		if err != nil {
			return err
		}
		dropped = line.Dropped
		lastBeat = time.Now()
		if q := line.QuantumRecord; q != nil {
			latest[q.Mission] = *q
			seen++
			if maxFrames > 0 && seen >= maxFrames {
				redraw()
				return nil
			}
		}
		if time.Now().After(next) {
			redraw()
			next = time.Now().Add(interval)
		}
	}
	redraw()
	return sc.Err()
}

// decodeLine decodes one /stream.ndjson line; a heartbeat line leaves
// QuantumRecord nil.
func decodeLine(b []byte) (obs.StreamLine, error) {
	var line obs.StreamLine
	if err := json.Unmarshal(b, &line); err != nil {
		return obs.StreamLine{}, fmt.Errorf("rose-top: bad stream line: %w", err)
	}
	return line, nil
}
