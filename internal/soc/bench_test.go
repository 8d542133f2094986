package soc

import (
	"testing"

	"repro/internal/packet"
)

// BenchmarkEngineStep measures synchronization-quantum overhead: the
// per-Step cost of the coroutine engine with a bridge-chatty program. The
// reply packet is built once: the bridge only reads payloads.
func BenchmarkEngineStep(b *testing.B) {
	m := NewMachine(Config{Core: BOOM, Gemmini: true}, func(rt *Runtime) error {
		for {
			rt.Send(packet.Packet{Type: packet.DepthReq})
			rt.Recv()
			rt.Compute(1_000_000)
		}
	})
	defer m.Close()
	reply := []packet.Packet{packet.Depth{Meters: 5}.Marshal()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Push(reply)
		m.Step(10_000_000)
		m.Pull()
	}
}
