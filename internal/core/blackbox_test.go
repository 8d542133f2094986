package core

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/soc"
)

// freezeProxy is a single-connection TCP proxy that forwards both directions
// until Freeze, after which it silently discards traffic while keeping both
// connections open — the signature of a hung (not dead) RPC peer, which no
// connection error will ever surface. Only the watchdog can catch it.
type freezeProxy struct {
	ln     net.Listener
	frozen atomic.Bool
	conns  chan net.Conn
}

func newFreezeProxy(t *testing.T, target string) *freezeProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &freezeProxy{ln: ln, conns: make(chan net.Conn, 4)}
	go func() {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", target)
		if err != nil {
			client.Close()
			return
		}
		p.conns <- client
		p.conns <- server
		pipe := func(dst, src net.Conn) {
			buf := make([]byte, 32<<10)
			for {
				n, err := src.Read(buf)
				if n > 0 && !p.frozen.Load() {
					if _, werr := dst.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}
		go pipe(server, client)
		go pipe(client, server)
	}()
	t.Cleanup(func() { p.Close() })
	return p
}

func (p *freezeProxy) Addr() string { return p.ln.Addr().String() }

func (p *freezeProxy) Freeze() { p.frozen.Store(true) }

// Close tears down the listener and any proxied connections, turning the
// hang into a hard error so the synchronizer can unwind.
func (p *freezeProxy) Close() {
	p.ln.Close()
	for {
		select {
		case c := <-p.conns:
			c.Close()
		default:
			return
		}
	}
}

// TestWatchdogBlackboxOnHungEnvServer is the acceptance scenario for the
// flight recorder: the env server freezes mid-run (here: a proxy stops
// forwarding its responses), the quantum heartbeat stops advancing, and the
// watchdog dumps a blackbox.json carrying the last quanta before the hang.
func TestWatchdogBlackboxOnHungEnvServer(t *testing.T) {
	sim := newEnv(t)
	srv, err := env.NewServer(sim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	proxy := newFreezeProxy(t, srv.Addr())
	client, err := env.Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	suite := obs.New(64)
	bbPath := filepath.Join(t.TempDir(), "blackbox.json")
	suite.Recorder.SetPath(bbPath)
	client.SetObs(suite.RPC)
	client.SetTrace(suite.Run)

	m := soc.NewMachine(soc.Config{Core: soc.BOOM}, cruiser(3))
	defer m.Close()
	cfg := DefaultConfig()
	cfg.MaxSimSeconds = 1000 // far beyond what the test lets run
	cfg.StopOnMissionComplete = false
	cfg.Obs = suite.Core
	sy, err := New(client, m, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Quanta over loopback complete in single-digit milliseconds; a 200ms
	// deadline never fires on a healthy run but catches the freeze fast.
	suite.Recorder.StartWatchdog(200 * time.Millisecond)
	defer suite.Recorder.StopWatchdog()

	runErr := make(chan error, 1)
	go func() {
		_, err := sy.Run()
		runErr <- err
	}()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Let a few healthy quanta complete so the black box has history.
	waitFor("3 quanta", func() bool { return suite.Core.Quanta.Value() >= 3 })
	if suite.Recorder.Stalls.Value() != 0 {
		t.Fatalf("watchdog fired on a healthy run: %d stalls", suite.Recorder.Stalls.Value())
	}

	proxy.Freeze()
	waitFor("watchdog dump", func() bool { return suite.Recorder.WatchdogDumps.Value() >= 1 })
	// The counter moves when the watchdog fires, before the dump is
	// written; stopping the watchdog waits for its goroutine, and so for
	// the dump, to finish.
	suite.Recorder.StopWatchdog()

	data, err := os.ReadFile(bbPath)
	if err != nil {
		t.Fatalf("no blackbox written: %v", err)
	}
	var bb struct {
		Schema  string `json:"schema"`
		Reason  string `json:"reason"`
		RunID   string `json:"run_id"`
		LastSeq uint64 `json:"last_seq"`
		Quanta  []struct {
			Seq    uint64 `json:"seq"`
			WallNs int64  `json:"wall_ns"`
		} `json:"quanta"`
		Events []struct {
			Msg string `json:"msg"`
		} `json:"events"`
	}
	if err := json.Unmarshal(data, &bb); err != nil {
		t.Fatalf("blackbox not valid JSON: %v\n%s", err, data)
	}
	if bb.Schema != "rose-blackbox/2" || bb.Reason != "watchdog" {
		t.Errorf("schema/reason = %q/%q", bb.Schema, bb.Reason)
	}
	if bb.RunID != suite.Run.RunIDHex() {
		t.Errorf("run_id = %q, want %q", bb.RunID, suite.Run.RunIDHex())
	}
	if bb.LastSeq == 0 {
		t.Error("last_seq = 0: heartbeat never recorded a quantum")
	}
	if len(bb.Quanta) < 3 {
		t.Errorf("blackbox holds %d quanta, want the pre-hang history", len(bb.Quanta))
	}
	found := false
	for _, e := range bb.Events {
		if e.Msg == "quantum watchdog fired" {
			found = true
		}
	}
	if !found {
		t.Error("event tail missing the watchdog error")
	}
	if sum := suite.Summary(); sum.QuantumStalls != 1 || sum.WatchdogDumps != 1 {
		t.Errorf("summary stalls/dumps = %d/%d", sum.QuantumStalls, sum.WatchdogDumps)
	}

	// Unblock the hung RPC so the synchronizer can unwind with an error.
	proxy.Close()
	select {
	case err := <-runErr:
		if err == nil {
			t.Error("Run returned nil after its env connection died")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("synchronizer did not unwind after the connection closed")
	}
}
