package packet

// RPC packet types (0x02xx) carry the environment simulator's remote API —
// the stand-in for AirSim's RPC interface (§3.1): simulator commands
// (stepping, reset) in addition to the sensor/actuation data types. They are
// used only on the synchronizer↔environment link, never on the bridge.
//
// Remote-RTL types (0x03xx) carry the synchronizer↔FireSim TCP protocol
// (§3.4.1): cycle grants and boundary packet batches. Every RTLStepped,
// RTLBatch, RTLRunMarks and RTLStatusReply payload carries the machine
// status — cycle, done flag, engine stats and energy breakdown — in soc's
// fixed-width little-endian status codec (DESIGN.md §4.7), so a quantum
// needs no separate status round trip.
const (
	// RPCStepFrames requests n environment frames (uint64 payload).
	RPCStepFrames Type = 0x0201
	// RPCFrameRate queries the environment frame rate (empty payload);
	// the response is a uint64 of millihertz.
	RPCFrameRate Type = 0x0202
	// RPCReset respawns the vehicle; payload is four float64s
	// (x, y, z, yaw).
	RPCReset Type = 0x0203
	// RPCTelemetry queries ground-truth telemetry (empty payload); the
	// response payload is gob-encoded env.Telemetry.
	RPCTelemetry Type = 0x0204
	// RPCAck acknowledges a command with no return value.
	RPCAck Type = 0x0205
	// RPCError carries an error string.
	RPCError Type = 0x0206
	// LinkClose is a resilient link's last frame, sent by Link.Close: the
	// link will never replay a request, so the server drops its session
	// (the replay cache) and the connection. It has no payload and gets no
	// reply.
	LinkClose Type = 0x0207

	// RTLStep grants a cycle quantum to a remote RTL simulation (uint64);
	// the response is an RTLStepped.
	RTLStep Type = 0x0301
	// RTLStepped answers RTLStep: the cycles consumed (uint64), then the
	// machine status after the quantum.
	RTLStepped Type = 0x0302
	// RTLPush delivers a batch of packets to the remote bridge; the
	// payload is the concatenated wire encoding of the batch and the
	// response is an RPCAck.
	RTLPush Type = 0x0303
	// RTLPull drains the remote bridge's SoC→host queue; the response is
	// an RTLBatch.
	RTLPull Type = 0x0304
	// RTLBatch answers RTLPull: the machine status after the drain, then
	// the concatenated packet batch.
	RTLBatch Type = 0x0305
	// RTLStatus queries the machine status outside the quantum loop (on
	// connect and after a restore).
	RTLStatus Type = 0x0306
	// RTLStatusReply answers RTLStatus; the payload is the status alone.
	RTLStatusReply Type = 0x0307
	// RTLSnap asks the remote RTL server to capture its machine; the
	// response is an RTLSnapData carrying the gob-encoded soc.SnapState.
	RTLSnap Type = 0x0308
	// RTLSnapData answers RTLSnap.
	RTLSnapData Type = 0x0309
	// RTLRestore ships a gob-encoded soc.SnapState to the server, which
	// rebuilds its machine from it via the installed restorer; the response
	// is an RPCAck.
	RTLRestore Type = 0x030A
	// RTLStepRun grants a run of quanta in one request: the cycles per
	// quantum (uint64), then the most quanta to step (uint64, 1 to
	// soc.MaxRunQuanta). The server steps them one by one and stops after
	// the first that leaves the TX queue non-empty or the program done; the
	// response is an RTLRunMarks.
	RTLStepRun Type = 0x030B
	// RTLRunMarks answers RTLStepRun: the quanta stepped (uint64), one mark
	// per quantum (cycle, engine fingerprint and total energy in pJ, each
	// uint64), then the machine status after the last.
	RTLRunMarks Type = 0x030C
)

// AppendBatch appends the concatenated wire encoding of pkts — the
// RTLPush/RTLBatch payload — to dst. Senders pass reused scratch so a batch
// costs no allocation.
func AppendBatch(dst []byte, pkts []Packet) ([]byte, error) {
	for _, p := range pkts {
		var err error
		if dst, err = p.Encode(dst); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeBatch splits a concatenated payload back into packets, each
// holding its own copy of its payload bytes.
func DecodeBatch(buf []byte) ([]Packet, error) {
	var out []Packet
	for len(buf) > 0 {
		p, n, err := Decode(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		buf = buf[n:]
	}
	return out, nil
}

// SplitBatch is DecodeBatch without the copies: it appends the packets of
// a concatenated payload to dst with every Payload aliasing buf, for
// receivers that keep the batch bytes in an arena they own.
func SplitBatch(dst []Packet, buf []byte) ([]Packet, error) {
	for len(buf) > 0 {
		p, n, err := decodeView(buf)
		if err != nil {
			return dst, err
		}
		dst = append(dst, p)
		buf = buf[n:]
	}
	return dst, nil
}
