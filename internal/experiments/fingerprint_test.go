package experiments

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
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

	// The client makes two writes per quantum. Write op 0 is the dial's
	// RTLStatus; quantum k then writes its pull at op 2k+1 and, at op 2k+2,
	// its deferred push flushed together with its RTLStep, whose 8-byte
	// payload is the quantum's cycle count. Corrupt one of those
	// push+step writes mid-mission: on a quiet quantum it is an empty
	// 8-byte push frame plus the 16-byte step frame, and the pinned seed's
	// bit selector (first PRNG draw % 192 bits) hits cycle bit 18 of the
	// step — a ±262144-cycle step, a real silent engine divergence, not a
	// framing error. Everything downstream is deterministic.
	const corruptOp = 300
	inj := faultnet.New(faultnet.Config{
		Seed:   1,
		Script: []faultnet.Fault{{Conn: 0, Dir: faultnet.DirWrite, Op: corruptOp, Kind: faultnet.Corrupt}},
	})
	rm := dialRemoteMissionWith(t, spec, nil, soc.DialOptions{
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

	// Localization: the corruption landed in quantum (corruptOp-2)/2; the
	// chain must pin the divergence there, not at mission end.
	wantQuantum := (corruptOp - 2) / 2
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
