package experiments

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/packet"
	"repro/internal/soc"
)

func TestFingerprintLogRoundTrip(t *testing.T) {
	fps := []uint64{0xcbf29ce484222325, 1, 0xffffffffffffffff, 42}
	var buf bytes.Buffer
	if err := WriteFingerprintLog(&buf, fps); err != nil {
		t.Fatal(err)
	}
	got, err := ParseFingerprintLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fps) {
		t.Fatalf("%d entries, want %d", len(got), len(fps))
	}
	for i := range fps {
		if got[i] != fps[i] {
			t.Errorf("entry %d = %016x, want %016x", i, got[i], fps[i])
		}
	}
	if _, err := ParseFingerprintLog(bytes.NewBufferString("zz\n")); err == nil {
		t.Error("garbage line parsed without error")
	}
	if fps, err := ParseFingerprintLog(bytes.NewBufferString("# comment\n\n0000000000000007\n")); err != nil || len(fps) != 1 || fps[0] != 7 {
		t.Errorf("comment/blank handling: %v, %v", fps, err)
	}
}

// TestParseFingerprintLogLongLine: a line longer than the scanner's 64 KiB
// buffer fails with the line number, wrapping bufio.ErrTooLong.
func TestParseFingerprintLogLongLine(t *testing.T) {
	log := "0000000000000001\n# c\n" + strings.Repeat("7", 70000) + "\n0000000000000002\n"
	_, err := ParseFingerprintLog(strings.NewReader(log))
	if err == nil || !errors.Is(err, bufio.ErrTooLong) ||
		!strings.HasPrefix(err.Error(), "experiments: fingerprint log line 3: ") {
		t.Fatalf("err = %v, want line 3 wrapping bufio.ErrTooLong", err)
	}
}

// FuzzParseFingerprintLog: the parser never panics, and any log it accepts
// parses back to the same values after WriteFingerprintLog rewrites it.
func FuzzParseFingerprintLog(f *testing.F) {
	f.Add([]byte("cbf29ce484222325\n0000000000000001\nffffffffffffffff\n"))
	f.Add([]byte("# comment\n\n  7 \r\n0x7\n"))
	f.Add([]byte("zz\n"))
	f.Add([]byte("10000000000000000\n"))
	f.Add([]byte(strings.Repeat("f", 70000)))
	f.Fuzz(func(t *testing.T, data []byte) {
		fps, err := ParseFingerprintLog(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "experiments: fingerprint log line ") {
				t.Fatalf("error without a line number: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteFingerprintLog(&buf, fps); err != nil {
			t.Fatal(err)
		}
		again, err := ParseFingerprintLog(&buf)
		if err != nil || !slices.Equal(again, fps) {
			t.Fatalf("rewritten log parses to %x (%v), want %x", again, err, fps)
		}
	})
}

func TestFirstDivergentQuantum(t *testing.T) {
	base := []uint64{10, 20, 30, 40, 50}
	if q, ok := FirstDivergentQuantum(base, base); ok {
		t.Errorf("identical logs reported divergence at %d", q)
	}
	// A chain diverges once and stays diverged — the shape the bisector
	// exploits.
	div := []uint64{10, 20, 31, 41, 51}
	if q, ok := FirstDivergentQuantum(base, div); !ok || q != 2 {
		t.Errorf("divergence at %d (ok=%v), want 2", q, ok)
	}
	// One run ended early with an identical prefix: divergence is the first
	// quantum only one run reached.
	if q, ok := FirstDivergentQuantum(base, base[:3]); !ok || q != 3 {
		t.Errorf("prefix divergence at %d (ok=%v), want 3", q, ok)
	}
	// A corrupted log line that re-agrees afterwards is not a valid rolling
	// chain (the mismatch predicate is not monotone), but the diff must
	// still catch it rather than report the logs identical.
	corrupt := []uint64{10, 99, 30, 40, 50}
	if q, ok := FirstDivergentQuantum(base, corrupt); !ok || q != 1 {
		t.Errorf("corrupt-line divergence at %d (ok=%v), want 1", q, ok)
	}
}

// TestFingerprintParityLocalRemote is the `make fingerparity` assertion:
// the same mission run with an in-process engine and with the engine behind
// a TCP RTL server must produce identical per-quantum fingerprint chains —
// the engine's rolling fingerprint rides every RTLStepped reply, so remote ≡
// local is checked live at every quantum, not only at mission end.
func TestFingerprintParityLocalRemote(t *testing.T) {
	spec := paritySpec("tunnel", core.OverlapOn)
	spec.RecordFingerprints = true

	local, err := RunMission(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Result.Fingerprints) == 0 {
		t.Fatal("local run recorded no fingerprints")
	}
	if got := local.Result.Fingerprints[len(local.Result.Fingerprints)-1]; got != local.Result.Fingerprint {
		t.Errorf("final chain value %016x != result fingerprint %016x", got, local.Result.Fingerprint)
	}

	rm := dialRemoteMission(t, spec, nil)
	remote, err := rm.sy.Run()
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := FirstDivergentQuantum(local.Result.Fingerprints, remote.Fingerprints); ok {
		t.Fatalf("local and remote fingerprint chains diverge at quantum %d:\n%s",
			q, DivergenceReport("local", local.Result.Fingerprints, "remote", remote.Fingerprints))
	}
}

// TestLiveDivergenceRemoteRTL fault-injects the remote RTL link — one
// scripted bit flip in a client→server frame mid-mission — and asserts the
// fingerprint chains detect the divergence and localize its first quantum
// consistently with the trajectory ground truth.
func TestLiveDivergenceRemoteRTL(t *testing.T) {
	spec := paritySpec("tunnel", core.OverlapOn)
	spec.RecordFingerprints = true
	ref, err := RunMission(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The corrupted write comes from a counted clean run's write schedule:
	// the step write of the first quiet quantum (its previous step left the
	// TX queue empty, so nothing else is written) from quantum 90 on. That
	// write is the 16-byte RTLStep frame alone, whose 8-byte payload is the
	// quantum's cycle count, and the pinned seed's bit selector (first PRNG
	// draw % 128 bits) hits bit 82: cycle bit 18 of the step, a
	// ±262144-cycle step — a real silent engine divergence, not a framing
	// error. Everything downstream is deterministic.
	clean := &writeLog{}
	rm := dialRemoteMissionWith(t, spec, nil, soc.DialOptions{
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			clean.Conn = conn
			return clean, err
		},
	})
	cleanRes, err := rm.sy.Run()
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := FirstDivergentQuantum(ref.Result.Fingerprints, cleanRes.Fingerprints); ok {
		t.Fatalf("the counted clean run diverges at quantum %d", q)
	}
	corruptOp, wantQuantum := clean.quietStep(t, 90)

	inj := faultnet.New(faultnet.Config{
		Seed:   1,
		Script: []faultnet.Fault{{Conn: 0, Dir: faultnet.DirWrite, Op: corruptOp, Kind: faultnet.Corrupt}},
	})
	rm = dialRemoteMissionWith(t, spec, nil, soc.DialOptions{
		// A deadline turns an unexpected framing hang into a test failure
		// instead of a test timeout.
		RPCTimeout: 30 * time.Second,
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return inj.WrapConn(conn), nil
		},
	})
	faulty, err := rm.sy.Run()
	if err != nil {
		t.Fatalf("faulted mission errored instead of diverging: %v", err)
	}
	if inj.Counts()[faultnet.Corrupt] == 0 {
		t.Fatal("scripted corruption never fired")
	}

	q, ok := FirstDivergentQuantum(ref.Result.Fingerprints, faulty.Fingerprints)
	if !ok {
		t.Fatal("bit-flipped mission produced an identical fingerprint chain")
	}
	t.Logf("%s", DivergenceReport("clean", ref.Result.Fingerprints, "faulted", faulty.Fingerprints))

	// The flip landed in the step's cycle payload: the faulted mission ran
	// exactly 2^18 cycles more or fewer than the clean one.
	if d := int64(faulty.Cycles) - int64(ref.Result.Cycles); d != 1<<18 && d != -1<<18 {
		t.Errorf("faulted mission ran %d cycles more than the clean one, want ±%d", d, 1<<18)
	}

	// Localization: the corruption landed in quantum wantQuantum; the chain
	// must pin the divergence there, not at mission end.
	if q < wantQuantum-2 || q > wantQuantum+2 {
		t.Errorf("divergence localized at quantum %d, expected within 2 of %d", q, wantQuantum)
	}

	// Ground truth: the fingerprint divergence must not trail the first
	// trajectory mismatch (the fingerprint covers strictly more state).
	trajDiv := -1
	n := len(ref.Result.Trajectory)
	if len(faulty.Trajectory) < n {
		n = len(faulty.Trajectory)
	}
	for i := 0; i < n; i++ {
		if ref.Result.Trajectory[i] != faulty.Trajectory[i] {
			trajDiv = i
			break
		}
	}
	if trajDiv == -1 && len(ref.Result.Trajectory) != len(faulty.Trajectory) {
		trajDiv = n
	}
	if trajDiv >= 0 && q > trajDiv {
		t.Errorf("fingerprint divergence (quantum %d) trails trajectory divergence (quantum %d)", q, trajDiv)
	}
}

// writeLog records the bytes of every Write on a connection and where each
// write ends in them.
type writeLog struct {
	net.Conn
	mu   sync.Mutex
	buf  []byte
	ends []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.buf = append(w.buf, p...)
	w.ends = append(w.ends, len(w.buf))
	w.mu.Unlock()
	return w.Conn.Write(p)
}

// quietStep parses the recorded client stream into frames and returns the
// write op and quantum of the first quantum from quantum `from` on whose
// RTLStep frame was a write of its own: a quantum that wrote no pull and
// no push. The synchronizer steps once per quantum, so the k-th RTLStep
// frame is quantum k's.
func (w *writeLog) quietStep(t *testing.T, from int) (op, quantum int) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	steps, write := 0, 0
	for off := 0; off < len(w.buf); {
		p, n, err := packet.Decode(w.buf[off:])
		if err != nil {
			t.Fatalf("recorded stream at byte %d: %v", off, err)
		}
		writeStart := 0
		if write > 0 {
			writeStart = w.ends[write-1]
		}
		end := off + n
		if p.Type == packet.RTLStep {
			if steps >= from && off == writeStart && end == w.ends[write] {
				return write, steps
			}
			steps++
		}
		off = end
		for write < len(w.ends) && w.ends[write] <= off {
			write++
		}
	}
	t.Fatalf("no quiet quantum among the %d steps from quantum %d on", steps, from)
	return 0, 0
}
