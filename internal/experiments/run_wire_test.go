package experiments

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/soc"
)

// frameCounter counts the whole request frames written on a connection.
type frameCounter struct {
	net.Conn
	mu     sync.Mutex
	buf    []byte
	frames int
}

func (c *frameCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf = append(c.buf, p...)
	for {
		_, n, err := packet.Decode(c.buf)
		if err != nil {
			break // a frame split across writes completes in a later one
		}
		c.frames++
		c.buf = c.buf[n:]
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestRemoteRTLRequestsPerQuantum flies a ResNet6 tunnel mission shaped
// like perfbench's tcp-1ms (1 ms quanta, serial, 4 s) against an RTL server
// on loopback, dialed through a connection that counts request frames. At
// 1 ms quanta one quantum in 16–17 is due a frame and most leave the TX
// queue empty, so the synchronizer grants runs of quanta in one request:
// at most 0.2 RTL requests per quantum, where stepping every quantum alone
// sends at least one.
func TestRemoteRTLRequestsPerQuantum(t *testing.T) {
	spec := MissionSpec{
		Map: "tunnel", Model: "ResNet6", HW: config.A, VForward: 3,
		StartX: 2, SyncCycles: 1_000_000, MaxSimSec: 4, Seed: 1, Overlap: core.OverlapOff,
	}
	counter := &frameCounter{}
	rm := dialRemoteMissionWith(t, spec, nil, soc.DialOptions{
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			counter.Conn = conn
			return counter, err
		},
	})
	res, err := rm.sy.Run()
	if err != nil {
		t.Fatal(err)
	}
	counter.mu.Lock()
	frames := counter.frames
	counter.mu.Unlock()
	perQuantum := float64(frames) / float64(res.Syncs)
	t.Logf("%d RTL requests over %d quanta: %.3f per quantum", frames, res.Syncs, perQuantum)
	if res.Syncs < 4000 {
		t.Fatalf("mission flew %d quanta, want the full 4 s", res.Syncs)
	}
	if perQuantum > 0.2 {
		t.Errorf("%.3f RTL requests per quantum, want at most 0.2", perQuantum)
	}
}
