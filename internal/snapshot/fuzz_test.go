package snapshot

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/env"
)

// FuzzImageDecode: Decode must return either an image or an error for any
// input, never panic. Before decoding, every well-framed section of the
// fuzzed input is re-sealed with a valid CRC-32C, so mutated payloads reach
// the JSON and gob decoders instead of dying at the CRC check; the raw
// input is decoded too, keeping the framing and CRC paths under the fuzzer.
func FuzzImageDecode(f *testing.F) {
	img := sampleImage()
	enc, err := Encode(img)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	img.Core.Trajectory = []env.Telemetry{{TimeSec: 0.5, Frame: 30}, {TimeSec: 0.6, Frame: 36}}
	img.Core.Fingerprints = []uint64{1, 2}
	img.SoC.App = []byte("resume state")
	if enc, err = Encode(img); err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			if img, err := Decode(in); (img == nil) == (err == nil) {
				t.Fatalf("Decode returned image=%v with err=%v", img != nil, err)
			}
		}
	})
}

// reseal returns a copy of an encoded image with the CRC of every section
// whose header and payload fit in the input recomputed over its payload.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < len(Magic)+4 {
		return out
	}
	count := binary.LittleEndian.Uint32(out[len(Magic):])
	p := out[len(Magic)+4:]
	for i := uint32(0); i < count && len(p) >= 12; i++ {
		length := uint64(binary.LittleEndian.Uint32(p[4:]))
		if length > uint64(len(p)-12) {
			break
		}
		binary.LittleEndian.PutUint32(p[8:], crc32.Checksum(p[12:12+length], castagnoli))
		p = p[12+length:]
	}
	return out
}
