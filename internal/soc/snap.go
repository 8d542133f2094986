package soc

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/bridge"
	"repro/internal/packet"
)

// Snapshot support. A Go coroutine stack cannot be serialized, so resumable
// machines are built from StatePrograms: explicit state machines whose resume
// point lives in a blob. The engine contributes the other half — the
// partially-charged request the machine carries across quanta — which means a
// snapshot can land mid-charge (e.g. halfway through a DNN layer's cycle
// bill) and restore exactly there.
//
// Capture protocol (SnapState): if no request is in flight the program is
// quiesced by resuming it until it issues its next request, which is parked
// in Machine.fetched — a semantically neutral move (the request has not been
// priced or charged). The resume is synchronous: when it returns the program
// is parked in that request and its resume state names it.
//
// Restore protocol (RestoreMachine): the program blob is installed, a fresh
// coroutine started, and — per the StateProgram contract — the coroutine
// re-issues the request that was in flight at capture. The engine swallows
// that re-issue, verifies it names the same request, and substitutes the
// snapshot's partially-charged original so not a single cycle is re-billed.

// ErrNotResumable marks machines built with NewMachine rather than
// NewStateMachine.
var ErrNotResumable = errors.New("soc: machine program is not a StateProgram")

// PendReq is the serializable image of an in-flight engine request.
type PendReq struct {
	Kind   uint8
	Cycles uint64 // priced total (0 for a not-yet-priced fetched request)
	Accel  bool
	Left   uint64 // cycles still to charge; 0 for blocked I/O retrying
	// EnergyPJ/MemPJ are the request's dynamic energy bill. For a priced
	// pending request the ledger already holds it (energy is charged at
	// pricing time); for a not-yet-priced fetched request they are what the
	// next Step will charge.
	EnergyPJ uint64
	MemPJ    uint64
	Pkt      packet.Packet
}

// SnapState is the serializable image of a Machine: cycle/stat counters, the
// bridge (queues + control unit), the in-flight request, and the program's
// own resume blob.
type SnapState struct {
	Cycle uint64
	Stats Stats

	Bridge bridge.State

	HasPending bool
	Pending    PendReq
	HasFetched bool
	Fetched    PendReq

	App []byte // StateProgram.SnapshotState blob
}

// SnapState captures the machine at a quantum boundary (budget drained, i.e.
// between Step calls). Capture is non-destructive: the live machine keeps
// running afterwards. It fails for non-resumable machines and exited
// programs.
func (m *Machine) SnapState() (*SnapState, error) {
	if m.sp == nil {
		return nil, ErrNotResumable
	}
	if m.done {
		return nil, errors.New("soc: cannot snapshot an exited program")
	}
	if m.br.Budget() != 0 {
		return nil, errors.New("soc: snapshot only at a quantum boundary (budget not drained)")
	}
	// Quiesce: make sure the program is parked in a request we hold.
	if !m.hasPending && m.fetched == nil {
		r, ok := m.next()
		if !ok {
			m.done = true
			return nil, errors.New("soc: cannot snapshot an exited program")
		}
		m.fetched = &r
	}
	app, err := m.sp.SnapshotState()
	if err != nil {
		return nil, fmt.Errorf("soc: program snapshot: %w", err)
	}
	st := &SnapState{
		Cycle:  m.cycle,
		Stats:  m.stats,
		Bridge: m.br.State(),
		App:    app,
	}
	if m.hasPending {
		st.HasPending = true
		st.Pending = PendReq{
			Kind:     uint8(m.pending.kind),
			Cycles:   m.pending.cycles,
			Accel:    m.pending.accel,
			Left:     m.pendLeft,
			EnergyPJ: m.pending.energy,
			MemPJ:    m.pending.memPJ,
			Pkt:      clonePkt(m.pending.pkt),
		}
	} else {
		st.HasFetched = true
		st.Fetched = PendReq{
			Kind:     uint8(m.fetched.kind),
			Cycles:   m.fetched.cycles,
			Accel:    m.fetched.accel,
			EnergyPJ: m.fetched.energy,
			MemPJ:    m.fetched.memPJ,
			Pkt:      clonePkt(m.fetched.pkt),
		}
	}
	return st, nil
}

// RestoreMachine rebuilds a machine from a snapshot: a fresh coroutine runs
// sp from its restored state, and the in-flight request is re-armed exactly
// as captured — cycles already charged stay charged, cycles still owed stay
// owed. cfg must describe the same SoC configuration the image was taken
// from (queue capacities are taken from the image).
func RestoreMachine(cfg Config, sp StateProgram, st *SnapState) (*Machine, error) {
	if st == nil {
		return nil, errors.New("soc: nil snapshot")
	}
	// SnapState captures with the budget drained and exactly one request in
	// flight, a pending one already priced (a time read is priced as a
	// 1-cycle compute); an image that says otherwise was not taken by it.
	if st.Bridge.Budget != 0 {
		return nil, fmt.Errorf("soc: snapshot taken mid-quantum (bridge budget %d)", st.Bridge.Budget)
	}
	if st.HasPending == st.HasFetched {
		return nil, errors.New("soc: snapshot must carry exactly one in-flight request")
	}
	if st.HasPending && reqKind(st.Pending.Kind) == reqNow {
		return nil, errors.New("soc: snapshot's pending request is an unpriced time read")
	}
	if err := sp.RestoreState(st.App); err != nil {
		return nil, fmt.Errorf("soc: program restore: %w", err)
	}
	m := newMachine(cfg)
	m.sp = sp
	m.cycle = st.Cycle
	m.stats = st.Stats
	m.br.SetState(st.Bridge)
	m.launch(sp.Run)

	// Per the StateProgram contract the coroutine now re-issues the request
	// that was in flight at capture. Swallow it, check it names the same
	// request, and substitute the snapshot's partially-charged original.
	want := st.Pending
	if st.HasFetched {
		want = st.Fetched
	}
	got, ok := m.next()
	if !ok {
		return nil, fmt.Errorf("soc: restored program exited instead of re-issuing its request (err=%v)", m.runErr)
	}
	if err := matchReissue(want, got); err != nil {
		m.Close()
		return nil, err
	}
	if st.HasPending {
		// Re-arm the priced request. For kinds whose side effects already
		// happened at capture (recv dequeued its packet, send pushed into
		// the TX queue when Left > 0), the captured bridge state and Pkt
		// carry those effects — chargePending only bills the remainder.
		r := request{
			kind:   reqKind(st.Pending.Kind),
			cycles: st.Pending.Cycles,
			accel:  st.Pending.Accel,
			energy: st.Pending.EnergyPJ,
			memPJ:  st.Pending.MemPJ,
			pkt:    clonePkt(st.Pending.Pkt),
		}
		m.pending, m.hasPending = r, true
		m.pendLeft = st.Pending.Left
	} else {
		// Not yet priced: park it for the next Step to price normally.
		r := request{
			kind:   reqKind(st.Fetched.Kind),
			cycles: st.Fetched.Cycles,
			accel:  st.Fetched.Accel,
			energy: st.Fetched.EnergyPJ,
			memPJ:  st.Fetched.MemPJ,
			pkt:    clonePkt(st.Fetched.Pkt),
		}
		m.fetched = &r
	}
	return m, nil
}

// matchReissue checks that the request a restored program re-issued names the
// same operation as the captured one. reqNow is priced by rewriting it to a
// 1-cycle compute, so a captured compute(1) legitimately matches a re-issued
// reqNow.
func matchReissue(want PendReq, got request) error {
	wk := reqKind(want.Kind)
	if wk == reqCompute && want.Cycles == 1 && got.kind == reqNow {
		return nil
	}
	if got.kind != wk {
		return fmt.Errorf("soc: restored program re-issued %v, snapshot holds %v (non-deterministic StateProgram?)", got.kind, wk)
	}
	switch wk {
	case reqCompute:
		if got.cycles != want.Cycles || got.accel != want.Accel {
			return fmt.Errorf("soc: restored compute request mismatch: got %d cycles (accel=%v), snapshot %d (accel=%v)",
				got.cycles, got.accel, want.Cycles, want.Accel)
		}
	case reqSend:
		if got.pkt.Type != want.Pkt.Type || !bytes.Equal(got.pkt.Payload, want.Pkt.Payload) {
			return fmt.Errorf("soc: restored send request payload mismatch (type %v vs %v)", got.pkt.Type, want.Pkt.Type)
		}
	}
	// recv/tryrecv carry no program-chosen arguments; kind equality suffices.
	return nil
}

func clonePkt(p packet.Packet) packet.Packet {
	if p.Payload != nil {
		p.Payload = append([]byte(nil), p.Payload...)
	}
	return p
}
