// Package snapshot serializes the full co-simulation state to a versioned
// binary image (`rose-snap/1`) and restores it, enabling warm-start sweeps
// (run a shared mission prefix once, fork per sweep point), suspend/resume,
// and migration of a mission between hosts.
//
// One image captures the three stateful layers of a mission at a quantum
// boundary:
//
//   - the synchronizer's loop progress (core.State): quantum index, frame
//     debt, simulated time, and the partially-accumulated Result;
//   - the environment simulator (env.SimState): vehicle dynamics, flight
//     controller memory, sensor RNG cursors, collision bookkeeping;
//   - the SoC machine (soc.SnapState): cycle/stat counters, bridge queues
//     and control unit, the partially-charged in-flight request, and the
//     resumable program's own state blob.
//
// What is NOT captured — by design: read-only configuration (map geometry,
// model weights, camera setup) is reproduced from the mission description in
// Meta and shared copy-on-write between forks; live transport state
// (TCP links, resilience session sequence numbers) is reconstructed fresh on
// restore, since a restored mission re-handshakes its links exactly like a
// reconnecting client; observability wiring (registries, tracers) is
// process-level, with only the trace quantum sequence carried in Meta so a
// restored run continues the captured numbering.
//
// The container is deliberately simple and versioned: a magic string, a
// section table, and CRC-32C-protected section payloads (gob for state
// sections, JSON for the meta section). See DESIGN.md §9 for the layout.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/soc"
)

// Magic identifies the image format and its version. A format change that
// cannot be decoded by older readers must bump the version suffix.
const Magic = "rose-snap/1\n"

// Section tags. Each appears exactly once per image, the energy section
// included: an image written before the energy ledger existed lacks it and
// fails closed with a missing-section error rather than restoring a mission
// whose energy totals would silently cover only the resumed portion.
const (
	secMeta   = "meta"
	secCore   = "core"
	secEnv    = "env "
	secSoC    = "soc "
	secEnergy = "nrgy"
)

// maxSectionBytes bounds a section payload so a corrupt length field cannot
// demand gigabytes. Trajectories dominate real images and stay far below.
const maxSectionBytes = 1 << 30

// Meta describes the mission the image was captured from: everything needed
// to rebuild the read-only parts (map, models, SoC config) that the state
// sections deliberately do not carry. Spec is owned by the capturing layer
// (experiments.MissionSpec for sweep images); Quantum/TraceSeq are filled by
// Capture.
type Meta struct {
	// Quantum is the number of completed synchronization quanta at capture.
	Quantum uint64 `json:"quantum"`
	// TraceSeq is the obs trace-context sequence at capture; restored runs
	// fast-forward their context to it.
	TraceSeq uint64 `json:"trace_seq,omitempty"`
	// Fingerprint is the mission's rolling determinism fingerprint
	// (internal/fprint) at capture, in 16-digit hex — the value a resumed
	// run's chain continues from, and what warm-start parity checks compare
	// before stepping. "" on images captured before fingerprinting (or
	// before the first quantum).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Spec is the capturing layer's mission description (JSON), used to
	// rebuild sessions, map, and SoC config on restore.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// Image is one decoded rose-snap/1 snapshot.
type Image struct {
	Meta Meta
	Core core.State
	Env  env.SimState
	SoC  soc.SnapState
}

// RTL is the capture surface a snapshot needs from the SoC side: the local
// soc.Machine and the TCP soc.RemoteRTL both provide it, so images capture
// distributed deployments the same way as single-process ones.
type RTL interface {
	SnapState() (*soc.SnapState, error)
}

// Capture assembles an image from a mission's three layers. It must be
// called at a quantum boundary — between core.Synchronizer.StepQuanta calls —
// while nothing else is stepping the mission. Capture is non-destructive:
// the live mission can keep running afterwards (the cold-path baseline in
// the warm-start benchmark does exactly that).
func Capture(sy *core.Synchronizer, sim *env.Sim, rtl RTL, meta Meta) (*Image, error) {
	socSt, err := rtl.SnapState()
	if err != nil {
		return nil, fmt.Errorf("snapshot: capturing SoC: %w", err)
	}
	coreSt := sy.SnapState()
	meta.Quantum = coreSt.Quantum
	if coreSt.Fingerprint != 0 {
		meta.Fingerprint = fmt.Sprintf("%016x", coreSt.Fingerprint)
	}
	return &Image{
		Meta: meta,
		Core: coreSt,
		Env:  sim.SnapState(),
		SoC:  *socSt,
	}, nil
}

// castagnoli is the CRC-32C table (same polynomial the transport framing
// uses).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes an image to the rose-snap/1 wire form:
//
//	magic (12 bytes) | u32 section count |
//	per section: tag (4 bytes) | u32 length | u32 CRC-32C(payload) | payload
//
// State sections are gob-encoded; the meta section is JSON (inspectable with
// strings/jq for debugging).
func Encode(img *Image) ([]byte, error) {
	metaPayload, err := json.Marshal(&img.Meta)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding meta: %w", err)
	}
	gobEnc := func(v any) ([]byte, error) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	corePayload, err := gobEnc(&img.Core)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding core state: %w", err)
	}
	envPayload, err := gobEnc(&img.Env)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding env state: %w", err)
	}
	// The energy ledger travels in its own section: the soc section is
	// written from a copy with the ledger zeroed, so the "nrgy" payload is
	// authoritative.
	socSt := img.SoC
	ledger := socSt.Stats.Energy
	socSt.Stats.Energy = soc.EnergyLedger{}
	socPayload, err := gobEnc(&socSt)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding soc state: %w", err)
	}
	energyPayload, err := gobEnc(&ledger)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding energy ledger: %w", err)
	}

	sections := []struct {
		tag     string
		payload []byte
	}{
		{secMeta, metaPayload},
		{secCore, corePayload},
		{secEnv, envPayload},
		{secSoC, socPayload},
		{secEnergy, energyPayload},
	}
	var out []byte
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sections)))
	for _, s := range sections {
		out = append(out, s.tag...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(s.payload, castagnoli))
		out = append(out, s.payload...)
	}
	return out, nil
}

// Decode parses a rose-snap/1 image, verifying the magic, the section
// framing, and every section's CRC.
func Decode(data []byte) (*Image, error) {
	if len(data) < len(Magic)+4 || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: not a %q image", Magic[:len(Magic)-1])
	}
	p := data[len(Magic):]
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]
	img := &Image{}
	seen := map[string]bool{}
	var ledger soc.EnergyLedger
	for i := uint32(0); i < count; i++ {
		if len(p) < 12 {
			return nil, fmt.Errorf("snapshot: truncated section header (section %d)", i)
		}
		tag := string(p[:4])
		length := binary.LittleEndian.Uint32(p[4:])
		sum := binary.LittleEndian.Uint32(p[8:])
		p = p[12:]
		if uint64(length) > maxSectionBytes || uint64(len(p)) < uint64(length) {
			return nil, fmt.Errorf("snapshot: truncated section %q (%d bytes declared, %d available)", tag, length, len(p))
		}
		payload := p[:length]
		p = p[length:]
		if crc32.Checksum(payload, castagnoli) != sum {
			return nil, fmt.Errorf("snapshot: section %q CRC mismatch", tag)
		}
		if seen[tag] {
			return nil, fmt.Errorf("snapshot: duplicate section %q", tag)
		}
		seen[tag] = true
		var err error
		switch tag {
		case secMeta:
			err = json.Unmarshal(payload, &img.Meta)
		case secCore:
			err = gob.NewDecoder(bytes.NewReader(payload)).Decode(&img.Core)
		case secEnv:
			err = gob.NewDecoder(bytes.NewReader(payload)).Decode(&img.Env)
		case secSoC:
			err = gob.NewDecoder(bytes.NewReader(payload)).Decode(&img.SoC)
		case secEnergy:
			err = gob.NewDecoder(bytes.NewReader(payload)).Decode(&ledger)
		default:
			// Unknown sections are skipped (CRC still verified): room for
			// forward-compatible extensions within version 1.
		}
		if err != nil {
			return nil, fmt.Errorf("snapshot: decoding section %q: %w", tag, err)
		}
	}
	for _, tag := range []string{secMeta, secCore, secEnv, secSoC, secEnergy} {
		if !seen[tag] {
			return nil, fmt.Errorf("snapshot: image missing section %q", tag)
		}
	}
	// Inject the ledger after the section loop so the result is independent
	// of the soc/nrgy section order on the wire.
	img.SoC.Stats.Energy = ledger
	return img, nil
}
