// Package packet defines the RoSÉ wire protocol used between the
// synchronizer, the bridge driver, and the RoSÉ BRIDGE hardware queues
// (paper §3.4.1): every message is a packet with a header carrying the
// packet type and payload byte count, followed by the serialized payload.
//
// Two classes of packets exist, exactly as in the paper:
//
//   - Synchronization packets communicate simulation state (e.g. the number
//     of cycles FireSim may advance each synchronization). They terminate at
//     the RoSÉ BRIDGE control unit and are never visible to the modeled SoC.
//   - Data packets encode sensor and actuator data. They are the only
//     packets visible to the simulated SoC, surfaced through the bridge's
//     memory-mapped queues.
//
// All integers are little-endian. Payload codecs for the sensor/actuator
// types used in the evaluation live in payload.go.
package packet

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Type identifies a packet's kind.
type Type uint16

// Synchronization packet types (bridge control unit only).
const (
	// SyncConfig carries the cycles-per-synchronization budget
	// (firesim_steps in Algorithm 1) as a uint64 payload.
	SyncConfig Type = 0x0001
	// SyncGrant releases one synchronization quantum of cycles to the RTL
	// simulation; payload is the cycle count (uint64).
	SyncGrant Type = 0x0002
	// SyncDone is sent by the RTL side when it has consumed its quantum;
	// payload is the cycle count actually simulated (uint64).
	SyncDone Type = 0x0003
	// SyncReset asks the RTL side to reset target state.
	SyncReset Type = 0x0004
)

// Data packet types (visible to the simulated SoC).
const (
	// CamReq requests a camera frame (empty payload).
	CamReq Type = 0x0101
	// CamData carries a camera frame (payload.CamFrame).
	CamData Type = 0x0102
	// IMUReq requests an IMU sample (empty payload).
	IMUReq Type = 0x0103
	// IMUData carries an IMU sample (payload.IMU).
	IMUData Type = 0x0104
	// DepthReq requests a forward depth reading (empty payload).
	DepthReq Type = 0x0105
	// DepthData carries a depth reading (payload.Depth).
	DepthData Type = 0x0106
	// CmdVel carries companion-computer velocity targets (payload.Cmd).
	CmdVel Type = 0x0107
)

// IsSync reports whether t is a synchronization packet type, consumed by the
// bridge control unit rather than the SoC.
func (t Type) IsSync() bool { return t < 0x0100 }

func (t Type) String() string {
	switch t {
	case SyncConfig:
		return "SYNC_CONFIG"
	case SyncGrant:
		return "SYNC_GRANT"
	case SyncDone:
		return "SYNC_DONE"
	case SyncReset:
		return "SYNC_RESET"
	case CamReq:
		return "CAM_REQ"
	case CamData:
		return "CAM_DATA"
	case IMUReq:
		return "IMU_REQ"
	case IMUData:
		return "IMU_DATA"
	case DepthReq:
		return "DEPTH_REQ"
	case DepthData:
		return "DEPTH_DATA"
	case CmdVel:
		return "CMD_VEL"
	}
	return fmt.Sprintf("Type(0x%04x)", uint16(t))
}

// Packet is one protocol message.
type Packet struct {
	Type    Type
	Payload []byte
}

// HeaderSize is the encoded header length: type (2) + flags (2) + payload
// length (4).
const HeaderSize = 8

// FlagTrace in the header flags word marks a packet carrying a trace
// context extension: TraceExtSize bytes between the header and the payload
// holding run ID (uint64), quantum sequence (uint32), and parent span tag
// (uint32), all little-endian. The extension is part of the framing — the
// payload length field never counts it — so untraced peers and traced
// peers interoperate packet-by-packet.
const FlagTrace uint16 = 1 << 0

// TraceExtSize is the trace context extension length.
const TraceExtSize = 16

// FlagResil marks a packet carrying a resilience extension: ResilExtSize
// bytes following the trace extension (when present) holding the link ID
// (uint64), the per-link message sequence (uint32), and a CRC-32C checksum
// (uint32) over the frame with the CRC field zeroed, all little-endian.
// The sequence keys at-most-once replay after a reconnect (DESIGN.md §7);
// the checksum detects frame corruption in flight. Like the trace
// extension it is part of the framing — the payload length field never
// counts it — so resilient and plain peers interoperate packet-by-packet.
const FlagResil uint16 = 1 << 1

// FlagCRC extends the resilience checksum to cover the payload bytes as
// well as the header and extensions. Without it the CRC guards only the
// framing metadata — cheap enough to leave on permanently — while FlagCRC
// is armed for hostile links (chaos tests, WANs).
const FlagCRC uint16 = 1 << 2

// ResilExtSize is the resilience extension length.
const ResilExtSize = 16

// Parent span tags carried in the trace extension: which phase of the
// synchronizer's quantum issued the RPC.
const (
	ParentNone     uint32 = 0 // outside the quantum loop (setup, reset)
	ParentExchange uint32 = 1 // boundary exchange (sensor/actuator traffic)
	ParentEnvStep  uint32 = 2 // environment quantum (step + telemetry)
	ParentRTLStep  uint32 = 3 // RTL quantum (remote RTL stepping)
)

// MaxPayload bounds payloads to guard against corrupt streams.
const MaxPayload = 16 << 20

// Size returns the encoded size of the packet in bytes.
func (p Packet) Size() int { return HeaderSize + len(p.Payload) }

// Encode appends the wire encoding of p to dst and returns the result.
func (p Packet) Encode(dst []byte) ([]byte, error) {
	if len(p.Payload) > MaxPayload {
		return nil, fmt.Errorf("packet: payload %d exceeds max %d", len(p.Payload), MaxPayload)
	}
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint16(hdr[0:2], uint16(p.Type))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(p.Payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, p.Payload...), nil
}

// Decode parses one packet from the front of buf, returning the packet and
// the number of bytes consumed. It returns io.ErrShortBuffer (wrapped) when
// buf does not yet hold a complete packet. Trace (FlagTrace) and resilience
// (FlagResil) extensions are consumed and discarded; use Reader to observe
// them.
func Decode(buf []byte) (Packet, int, error) {
	p, n, err := decodeView(buf)
	if err != nil {
		return Packet{}, 0, err
	}
	payload := make([]byte, len(p.Payload))
	copy(payload, p.Payload)
	return Packet{Type: p.Type, Payload: payload}, n, nil
}

// decodeView is Decode with the returned Payload aliasing buf.
func decodeView(buf []byte) (Packet, int, error) {
	if len(buf) < HeaderSize {
		return Packet{}, 0, fmt.Errorf("packet: %w: need header", io.ErrShortBuffer)
	}
	t := Type(binary.LittleEndian.Uint16(buf[0:2]))
	flags := binary.LittleEndian.Uint16(buf[2:4])
	n := binary.LittleEndian.Uint32(buf[4:8])
	if n > MaxPayload {
		return Packet{}, 0, fmt.Errorf("packet: payload length %d exceeds max", n)
	}
	ext := 0
	if flags&FlagTrace != 0 {
		ext = TraceExtSize
	}
	if flags&FlagResil != 0 {
		ext += ResilExtSize
	}
	total := HeaderSize + ext + int(n)
	if len(buf) < total {
		return Packet{}, 0, fmt.Errorf("packet: %w: need %d bytes", io.ErrShortBuffer, total)
	}
	return Packet{Type: t, Payload: buf[HeaderSize+ext : total]}, total, nil
}

// Write writes the packet to w in wire format.
func Write(w io.Writer, p Packet) error {
	buf, err := p.Encode(make([]byte, 0, p.Size()))
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Read reads exactly one packet from r. Trace (FlagTrace) and resilience
// (FlagResil) extensions are consumed and discarded; use Reader to observe
// them.
func Read(r io.Reader) (Packet, error) {
	var hdr [HeaderSize + TraceExtSize + ResilExtSize]byte
	if _, err := io.ReadFull(r, hdr[:HeaderSize]); err != nil {
		return Packet{}, err
	}
	t := Type(binary.LittleEndian.Uint16(hdr[0:2]))
	flags := binary.LittleEndian.Uint16(hdr[2:4])
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxPayload {
		return Packet{}, fmt.Errorf("packet: payload length %d exceeds max", n)
	}
	ext := 0
	if flags&FlagTrace != 0 {
		ext = TraceExtSize
	}
	if flags&FlagResil != 0 {
		ext += ResilExtSize
	}
	if ext > 0 {
		if _, err := io.ReadFull(r, hdr[HeaderSize:HeaderSize+ext]); err != nil {
			return Packet{}, fmt.Errorf("packet: truncated extension for %v: %w", t, err)
		}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Packet{}, fmt.Errorf("packet: truncated payload for %v: %w", t, err)
	}
	return Packet{Type: t, Payload: payload}, nil
}

// U64 builds a packet whose payload is a single little-endian uint64 — the
// encoding used by the synchronization packet types.
func U64(t Type, v uint64) Packet {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return Packet{Type: t, Payload: b[:]}
}

// AsU64 decodes a single-uint64 payload.
func (p Packet) AsU64() (uint64, error) {
	if len(p.Payload) != 8 {
		return 0, fmt.Errorf("packet: %v payload is %d bytes, want 8", p.Type, len(p.Payload))
	}
	return binary.LittleEndian.Uint64(p.Payload), nil
}
