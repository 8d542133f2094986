package main

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestWatchRendersLatestFramePerMission(t *testing.T) {
	stream := strings.Join([]string{
		`{"mission":"m1","seq":1,"time_sec":0.1,"cycles":16666667,"fingerprint":"aaaaaaaaaaaaaaaa"}`,
		`{"heartbeat":true}`,
		`{"mission":"m2","seq":1,"time_sec":0.1,"cycles":16666667,"fingerprint":"bbbbbbbbbbbbbbbb"}`,
		`{"mission":"m1","seq":2,"time_sec":0.2,"cycles":33333334,"fingerprint":"cccccccccccccccc","dropped":3}`,
	}, "\n") + "\n"
	var out strings.Builder
	if err := watch(strings.NewReader(stream), &out, "test", time.Hour, 0, true); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// Latest frame wins: m1 shows seq 2's fingerprint, not seq 1's.
	if strings.Contains(got, "aaaaaaaaaaaaaaaa") {
		t.Errorf("stale m1 frame rendered:\n%s", got)
	}
	for _, want := range []string{"m1", "m2", "cccccccccccccccc", "bbbbbbbbbbbbbbbb", "3 frames (3 dropped)"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestWatchFrameBudget(t *testing.T) {
	stream := `{"mission":"m1","seq":1,"time_sec":0.1}` + "\n" +
		`{"mission":"m1","seq":2,"time_sec":0.2}` + "\n"
	var out strings.Builder
	if err := watch(strings.NewReader(stream), &out, "test", time.Hour, 1, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 frames") {
		t.Errorf("frame budget not honored:\n%s", out.String())
	}
}

func TestWatchRejectsGarbage(t *testing.T) {
	var out strings.Builder
	if err := watch(strings.NewReader("not json\n"), &out, "test", time.Hour, 0, true); err == nil {
		t.Fatal("garbage line accepted")
	}
}

// TestStreamRoundTrip: a record published on a suite's bus, read through
// /stream.ndjson and decoded here keeps every field, and its fingerprint
// travels as 16 zero-padded hex digits.
func TestStreamRoundTrip(t *testing.T) {
	suite := obs.New(0)
	srv := httptest.NewServer(suite.Handler())
	defer srv.Close()
	want := obs.QuantumRecord{
		Mission: "m3", Seq: 41, StartUnixNano: 1_700_000_000_123_456_789,
		WallNs: 5_200_000, RTLNs: 2_100_000, EnvNs: 1_900_000, ExchangeNs: 300_000, StallNs: 40_000,
		Cycles: 683_333_347, EnergyPJ: 1_234_567_890, PowerMW: 1250, HasPower: true,
		Fingerprint:   0x00ad42654a6238e9,
		BridgeRxBytes: 7, BridgeTxBytes: 3, BridgeRxHWM: 4108, BridgeTxHWM: 24,
		Inferences: 13, InferMeanSec: 2.9e-3,
		Telemetry: obs.TelemetrySample{TimeSec: 0.68, Frame: 41, PosX: 2.3, PosY: -0.4, PosZ: 1.5,
			Yaw: 0.1, CollisionCount: 2, Collided: true, MissionComplete: true},
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/stream.ndjson?buf=4", nil)
	got := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
		}
		got <- resp
	}()
	// The response starts with the first line: publish until one leaves.
	var resp *http.Response
wait:
	for {
		suite.Bus.Publish(want)
		select {
		case resp = <-got:
			break wait
		case <-time.After(time.Millisecond):
		}
	}
	if resp == nil {
		t.FailNow()
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var raw []byte
	var line obs.StreamLine
	for line.QuantumRecord == nil { // skip heartbeat lines
		var err error
		if raw, err = br.ReadBytes('\n'); err != nil {
			t.Fatal(err)
		}
		if line, err = decodeLine(raw); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(string(raw), `"fingerprint":"00ad42654a6238e9"`) {
		t.Errorf("fingerprint not 16 hex digits on the wire: %s", raw)
	}
	if *line.QuantumRecord != want {
		t.Errorf("decoded %+v\nwant %+v", *line.QuantumRecord, want)
	}
}
