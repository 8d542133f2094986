package env

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/packet"
)

// TestRPCTraceCorrelationE2E is the loopback version of a two-host deploy:
// a client suite ("rose-sim") and a server suite ("rose-env-server") on one
// machine, RPCs stamped with the client's trace context, and the two
// exported traces merged into a single timeline. This is the acceptance
// check for cross-host correlation: the server adopts the client's run ID,
// its serve spans carry the client's quantum sequence, and the merge pairs
// them with the client's rpc.roundtrip spans.
func TestRPCTraceCorrelationE2E(t *testing.T) {
	srv, c := startServer(t)

	simSuite := obs.New(-1)
	simSuite.Host = "rose-sim"
	envSuite := obs.New(-1)
	envSuite.Host = "rose-env-server"
	srv.SetObs(envSuite.EnvServer)
	srv.SetLog(envSuite.Log)
	c.SetObs(simSuite.RPC)
	c.SetTrace(simSuite.Run)

	// Two "quanta" of mixed traffic, each under its own sequence number.
	var seqs []uint64
	for q := 0; q < 2; q++ {
		start := simSuite.Core.BeginQuantum()
		seqs = append(seqs, simSuite.Core.Seq())
		if err := c.SetVelocity(2, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.StepFrames(30); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Telemetry(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.FetchSensors([]packet.Type{packet.IMUReq, packet.DepthReq}); err != nil {
			t.Fatal(err)
		}
		simSuite.Core.EndQuantum(start, 0, obs.TelemetrySample{})
	}
	if seqs[0] == seqs[1] || seqs[0] == 0 {
		t.Fatalf("quantum sequences did not advance: %v", seqs)
	}

	// The server must have adopted the client's run ID off the wire.
	if got, want := envSuite.EnvServer.SeenRun(), simSuite.Run.RunID(); got != want {
		t.Fatalf("server adopted run %016x, client is %016x", got, want)
	}

	// Export both hosts and check the correlation keys span the wire.
	var simBuf, envBuf bytes.Buffer
	if err := simSuite.WriteTrace(&simBuf, simSuite.Host); err != nil {
		t.Fatal(err)
	}
	if err := envSuite.WriteTrace(&envBuf, envSuite.Host); err != nil {
		t.Fatal(err)
	}
	client, err := obs.ParseHostTrace(simBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	server, err := obs.ParseHostTrace(envBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if client.RunID != server.RunID {
		t.Fatalf("exported run IDs differ: client %q, server %q", client.RunID, server.RunID)
	}
	if client.Host != "rose-sim" || server.Host != "rose-env-server" {
		t.Errorf("hosts = %q / %q", client.Host, server.Host)
	}

	wantSeqs := map[uint64]bool{seqs[0]: true, seqs[1]: true}
	clientSeqs := map[uint64]int{}
	for _, sp := range client.Spans {
		if sp.Name == "rpc.roundtrip" && sp.HasSeq {
			if !wantSeqs[sp.Seq] {
				t.Errorf("client span tagged with unknown seq %d", sp.Seq)
			}
			clientSeqs[sp.Seq]++
		}
	}
	serverSeqs := map[uint64]int{}
	for _, sp := range server.Spans {
		if sp.HasSeq {
			if !wantSeqs[sp.Seq] {
				t.Errorf("server span %q tagged with unknown seq %d", sp.Name, sp.Seq)
			}
			serverSeqs[sp.Seq]++
		}
	}
	for _, seq := range seqs {
		if clientSeqs[seq] == 0 {
			t.Errorf("no client rpc.roundtrip span for seq %d", seq)
		}
		if serverSeqs[seq] == 0 {
			t.Errorf("no server serve span for seq %d", seq)
		}
	}

	// The merge must accept the pair and produce a parseable single trace
	// in which each quantum has spans from both process lanes.
	var merged bytes.Buffer
	if err := obs.WriteMergedTrace(&merged, client, server); err != nil {
		t.Fatal(err)
	}
	mt, err := obs.ParseHostTrace(merged.Bytes())
	if err != nil {
		t.Fatalf("merged trace does not reparse: %v", err)
	}
	if mt.RunID != client.RunID {
		t.Errorf("merged run ID = %q", mt.RunID)
	}
	if len(mt.Spans) != len(client.Spans)+len(server.Spans) {
		t.Errorf("merged %d spans, want %d", len(mt.Spans), len(client.Spans)+len(server.Spans))
	}
}

// TestRPCUntracedServerSpans checks the no-trace configuration stays clean:
// a client without SetTrace stamps nothing, so the server records untagged
// spans and adopts no run.
func TestRPCUntracedServerSpans(t *testing.T) {
	srv, c := startServer(t)
	envSuite := obs.New(-1)
	srv.SetObs(envSuite.EnvServer)
	if err := c.StepFrames(10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Telemetry(); err != nil {
		t.Fatal(err)
	}
	if run := envSuite.EnvServer.SeenRun(); run != 0 {
		t.Errorf("server adopted run %016x from an untraced client", run)
	}
	var buf bytes.Buffer
	if err := envSuite.WriteTrace(&buf, "rose-env-server"); err != nil {
		t.Fatal(err)
	}
	ht, err := obs.ParseHostTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(ht.Spans) == 0 {
		t.Fatal("server recorded no serve spans")
	}
	for _, sp := range ht.Spans {
		if sp.HasSeq {
			t.Errorf("untraced request produced tagged span %+v", sp)
		}
	}
}
