package bridge

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(1024)
	for i := 0; i < 5; i++ {
		if !q.Push(packet.U64(packet.SyncGrant, uint64(i))) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Len() != 5 {
		t.Errorf("len = %d", q.Len())
	}
	for i := 0; i < 5; i++ {
		p, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if v, _ := p.AsU64(); v != uint64(i) {
			t.Errorf("pop %d = %d, not FIFO", i, v)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop from empty queue succeeded")
	}
}

func TestQueueCapacity(t *testing.T) {
	p := packet.Packet{Type: packet.CamData, Payload: make([]byte, 100)}
	q := NewQueue(2 * p.Size())
	if !q.Push(p) || !q.Push(p) {
		t.Fatal("pushes within capacity failed")
	}
	if q.Push(p) {
		t.Error("push beyond capacity succeeded")
	}
	if q.FreeBytes() != 0 {
		t.Errorf("free = %d", q.FreeBytes())
	}
	q.Pop()
	if !q.Push(p) {
		t.Error("push after pop failed")
	}
	if q.UsedBytes() != 2*p.Size() {
		t.Errorf("used = %d", q.UsedBytes())
	}
}

func TestControlUnitBudget(t *testing.T) {
	b := New(0, 0)
	if err := b.HandleHostPacket(packet.U64(packet.SyncConfig, 16_000_000)); err != nil {
		t.Fatal(err)
	}
	if b.CyclesPerSync() != 16_000_000 {
		t.Errorf("cyclesPerSync = %d", b.CyclesPerSync())
	}
	if err := b.HandleHostPacket(packet.U64(packet.SyncGrant, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := b.HandleHostPacket(packet.U64(packet.SyncGrant, 500)); err != nil {
		t.Fatal(err)
	}
	if b.Budget() != 1500 {
		t.Errorf("budget = %d", b.Budget())
	}
	if got := b.ConsumeBudget(600); got != 600 {
		t.Errorf("consume = %d", got)
	}
	if got := b.ConsumeBudget(10_000); got != 900 {
		t.Errorf("consume clamped = %d", got)
	}
	if b.Budget() != 0 {
		t.Errorf("budget after drain = %d", b.Budget())
	}
	if b.Stats().SyncGrants != 2 {
		t.Errorf("grants = %d", b.Stats().SyncGrants)
	}
}

func TestSyncPacketsInvisibleToSoC(t *testing.T) {
	b := New(0, 0)
	b.HandleHostPacket(packet.U64(packet.SyncGrant, 1000))
	if b.PeekRxLen() != 0 {
		t.Error("sync packet leaked into the SoC-visible RX queue")
	}
	if _, ok := b.RecvData(); ok {
		t.Error("RecvData returned a sync packet")
	}
}

func TestDataPathHostToSoC(t *testing.T) {
	b := New(0, 0)
	frame, _ := packet.CamFrame{W: 2, H: 2, Pix: []byte{1, 2, 3, 4}}.Marshal()
	if err := b.HandleHostPacket(frame); err != nil {
		t.Fatal(err)
	}
	if b.PeekRxLen() != 1 {
		t.Errorf("rx len = %d", b.PeekRxLen())
	}
	p, ok := b.RecvData()
	if !ok || p.Type != packet.CamData {
		t.Fatalf("RecvData = %+v, %v", p, ok)
	}
	st := b.Stats()
	if st.HostToSoCPackets != 1 || st.HostToSoCBytes != frame.Size() {
		t.Errorf("stats = %+v", st)
	}
}

func TestDataPathSoCToHost(t *testing.T) {
	b := New(0, 0)
	cmd := packet.Cmd{VForward: 3}.Marshal()
	if !b.SendData(cmd) {
		t.Fatal("SendData failed")
	}
	if !b.SendData(packet.Packet{Type: packet.CamReq}) {
		t.Fatal("SendData failed")
	}
	if b.PeekTxLen() != 2 {
		t.Errorf("tx len = %d before the drain, want 2", b.PeekTxLen())
	}
	out := b.DrainToHost()
	if len(out) != 2 || out[0].Type != packet.CmdVel || out[1].Type != packet.CamReq {
		t.Errorf("drained %+v", out)
	}
	if b.PeekTxLen() != 0 {
		t.Errorf("tx len = %d after the drain, want 0", b.PeekTxLen())
	}
	if len(b.DrainToHost()) != 0 {
		t.Error("second drain not empty")
	}
}

func TestSoCCannotEmitSyncPackets(t *testing.T) {
	b := New(0, 0)
	if b.SendData(packet.U64(packet.SyncDone, 1)) {
		t.Error("SoC emitted a sync packet")
	}
}

func TestRxBackpressure(t *testing.T) {
	small := New(64, 0)
	big := packet.Packet{Type: packet.CamData, Payload: make([]byte, 100)}
	if err := small.HandleHostPacket(big); err == nil {
		t.Error("oversized packet accepted")
	}
	if small.Stats().RxDrops != 1 {
		t.Errorf("drops = %d", small.Stats().RxDrops)
	}
}

func TestTxBackpressure(t *testing.T) {
	b := New(0, 40)
	p := packet.Cmd{}.Marshal() // 32 bytes with header
	if !b.SendData(p) {
		t.Fatal("first send failed")
	}
	if b.SendData(p) {
		t.Error("send into full queue succeeded")
	}
	b.DrainToHost()
	if !b.SendData(p) {
		t.Error("send after drain failed")
	}
}

func TestSyncReset(t *testing.T) {
	b := New(0, 0)
	b.HandleHostPacket(packet.U64(packet.SyncGrant, 99))
	b.HandleHostPacket(packet.Depth{Meters: 4}.Marshal())
	b.SendData(packet.Cmd{}.Marshal())
	if err := b.HandleHostPacket(packet.U64(packet.SyncReset, 0)); err != nil {
		t.Fatal(err)
	}
	if b.Budget() != 0 || b.PeekRxLen() != 0 || len(b.DrainToHost()) != 0 {
		t.Error("reset did not clear bridge state")
	}
}

func TestBadSyncPayload(t *testing.T) {
	b := New(0, 0)
	if err := b.HandleHostPacket(packet.Packet{Type: packet.SyncGrant, Payload: []byte{1, 2}}); err == nil {
		t.Error("accepted malformed sync payload")
	}
	if err := b.HandleHostPacket(packet.Packet{Type: packet.Type(0x00FF)}); err == nil {
		t.Error("accepted unknown sync type")
	}
}

// Property: queue used-bytes accounting stays exact under random
// interleavings of pushes and pops.
func TestQueueAccountingQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q := NewQueue(4096)
	var model []packet.Packet
	used := 0
	for step := 0; step < 5000; step++ {
		if rng.Intn(2) == 0 {
			p := packet.Packet{Type: packet.CamData, Payload: make([]byte, rng.Intn(200))}
			if q.Push(p) {
				model = append(model, p)
				used += p.Size()
			} else if used+p.Size() <= 4096 {
				t.Fatalf("push rejected with %d free bytes", 4096-used)
			}
		} else {
			p, ok := q.Pop()
			if ok != (len(model) > 0) {
				t.Fatal("pop availability mismatch")
			}
			if ok {
				if p.Size() != model[0].Size() {
					t.Fatal("pop order mismatch")
				}
				used -= model[0].Size()
				model = model[1:]
			}
		}
		if q.Len() != len(model) || q.UsedBytes() != used {
			t.Fatalf("accounting drift: len %d/%d used %d/%d", q.Len(), len(model), q.UsedBytes(), used)
		}
	}
}
