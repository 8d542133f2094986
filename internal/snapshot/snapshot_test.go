package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/soc"
)

func sampleImage() *Image {
	return &Image{
		Meta: Meta{Quantum: 42, TraceSeq: 7, Spec: json.RawMessage(`{"map":"tunnel"}`)},
		Core: core.State{Quantum: 42, SimT: 0.7, FrameDebt: 0.25, Syncs: 42},
		Env:  env.SimState{Frame: 50, SimT: 0.83, Collided: false},
		SoC: soc.SnapState{
			Cycle: 123456, HasPending: true,
			Pending: soc.PendReq{Kind: 1, Cycles: 100, Left: 40},
			Stats:   soc.Stats{Energy: soc.EnergyLedger{CorePJ: 1111, AccelPJ: 2222, MemPJ: 3333}},
		},
	}
}

// stripSection removes one tagged section from an encoded image and
// decrements the section count — the shape of an image written by a binary
// that predates that section.
func stripSection(t *testing.T, enc []byte, tag string) []byte {
	t.Helper()
	out := append([]byte(nil), enc[:len(Magic)+4]...)
	count := binary.LittleEndian.Uint32(enc[len(Magic):])
	p := enc[len(Magic)+4:]
	removed := false
	for i := uint32(0); i < count; i++ {
		length := binary.LittleEndian.Uint32(p[4:])
		section := p[:12+length]
		p = p[12+length:]
		if string(section[:4]) == tag {
			removed = true
			continue
		}
		out = append(out, section...)
	}
	if !removed {
		t.Fatalf("section %q not present to strip", tag)
	}
	binary.LittleEndian.PutUint32(out[len(Magic):], count-1)
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := sampleImage()
	enc, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(enc, []byte(Magic)) {
		t.Fatal("image does not start with the magic")
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img.Meta, dec.Meta) {
		t.Errorf("meta round trip: want %+v got %+v", img.Meta, dec.Meta)
	}
	if !reflect.DeepEqual(img.Core, dec.Core) {
		t.Errorf("core round trip: want %+v got %+v", img.Core, dec.Core)
	}
	if !reflect.DeepEqual(img.Env, dec.Env) {
		t.Errorf("env round trip: want %+v got %+v", img.Env, dec.Env)
	}
	if !reflect.DeepEqual(img.SoC, dec.SoC) {
		t.Errorf("soc round trip: want %+v got %+v", img.SoC, dec.SoC)
	}
}

// TestDecodeRejectsPreEnergyImage: an image without the "nrgy" section —
// written before the energy ledger existed — fails closed with a
// missing-section error naming it, rather than restoring a zeroed ledger.
func TestDecodeRejectsPreEnergyImage(t *testing.T) {
	enc, err := Encode(sampleImage())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Decode(stripSection(t, enc, secEnergy))
	if err == nil || !strings.Contains(err.Error(), `missing section "nrgy"`) {
		t.Fatalf("want missing-section error naming nrgy, got %v", err)
	}
}

// TestDecodeCorruptEnergySection: the energy section is CRC-protected — a flipped bit refuses the image rather than silently
// restoring a wrong ledger.
func TestDecodeCorruptEnergySection(t *testing.T) {
	enc, err := Encode(sampleImage())
	if err != nil {
		t.Fatal(err)
	}
	// Find the nrgy section and flip a payload byte.
	p := enc[len(Magic)+4:]
	off := len(Magic) + 4
	for {
		length := binary.LittleEndian.Uint32(p[4:])
		if string(p[:4]) == secEnergy {
			bad := append([]byte(nil), enc...)
			bad[off+12] ^= 0x01
			if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "CRC") {
				t.Fatalf("want CRC error for corrupt energy payload, got %v", err)
			}
			return
		}
		p = p[12+length:]
		off += int(12 + length)
		if len(p) == 0 {
			t.Fatal("energy section not found")
		}
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	enc, err := Encode(sampleImage())
	if err != nil {
		t.Fatal(err)
	}
	enc[0] ^= 0xFF
	if _, err := Decode(enc); err == nil {
		t.Fatal("corrupted magic accepted")
	}
}

func TestDecodeDetectsPayloadCorruption(t *testing.T) {
	enc, err := Encode(sampleImage())
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in every section payload position and expect a CRC
	// error each time (headers produce framing errors instead; both must
	// refuse the image).
	for i := len(Magic) + 4; i < len(enc); i += 97 {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x01
		if _, err := Decode(bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	enc, err := Encode(sampleImage())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{len(Magic), len(Magic) + 4, len(enc) / 2, len(enc) - 1} {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestDecodeRejectsMissingSection(t *testing.T) {
	// An image with only a meta section decodes its frame fine but must be
	// rejected for the missing state sections.
	payload := []byte(`{"quantum":1}`)
	var enc []byte
	enc = append(enc, Magic...)
	enc = binary.LittleEndian.AppendUint32(enc, 1)
	enc = append(enc, "meta"...)
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(payload)))
	enc = binary.LittleEndian.AppendUint32(enc, crc32.Checksum(payload, castagnoli))
	enc = append(enc, payload...)
	_, err := Decode(enc)
	if err == nil || !strings.Contains(err.Error(), "missing section") {
		t.Fatalf("want missing-section error, got %v", err)
	}
}

func TestDecodeSkipsUnknownSections(t *testing.T) {
	enc, err := Encode(sampleImage())
	if err != nil {
		t.Fatal(err)
	}
	// Append a well-formed section with an unknown tag and bump the count:
	// forward-compatible extensions must not break version-1 readers.
	extra := []byte("future data")
	out := append([]byte(nil), enc...)
	out = append(out, "ext "...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(extra)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(extra, castagnoli))
	out = append(out, extra...)
	countOff := len(Magic)
	binary.LittleEndian.PutUint32(out[countOff:], binary.LittleEndian.Uint32(out[countOff:])+1)
	dec, err := Decode(out)
	if err != nil {
		t.Fatalf("unknown section broke decode: %v", err)
	}
	if dec.Meta.Quantum != 42 {
		t.Errorf("meta lost around unknown section: %+v", dec.Meta)
	}
}

func TestDecodeRejectsDuplicateSection(t *testing.T) {
	enc, err := Encode(sampleImage())
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the meta section verbatim and bump the count.
	p := enc[len(Magic)+4:]
	length := binary.LittleEndian.Uint32(p[4:])
	section := p[:12+length]
	out := append([]byte(nil), enc...)
	out = append(out, section...)
	countOff := len(Magic)
	binary.LittleEndian.PutUint32(out[countOff:], binary.LittleEndian.Uint32(out[countOff:])+1)
	_, err = Decode(out)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate-section error, got %v", err)
	}
}
