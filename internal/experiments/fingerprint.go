package experiments

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Fingerprint logs: one 16-hex-digit rolling determinism fingerprint per
// line, quantum 0 first — what `rose-sim -fingerprint-log` writes and what
// the divergence bisector consumes. Because each quantum's value folds the
// previous one (internal/fprint), two logs of the same mission agree on a
// prefix and disagree on the entire suffix after the first divergent
// quantum; the first mismatching line therefore names the exact quantum
// the mission state diverged, no replay needed.

// WriteFingerprintLog writes one fingerprint per line in hex.
func WriteFingerprintLog(w io.Writer, fps []uint64) error {
	bw := bufio.NewWriter(w)
	for _, fp := range fps {
		if _, err := fmt.Fprintf(bw, "%016x\n", fp); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseFingerprintLog reads a fingerprint log (blank lines and #-comments
// ignored). Every error names the line it stopped at, including a read
// error and a line longer than the scanner's 64 KiB buffer.
func ParseFingerprintLog(r io.Reader) ([]uint64, error) {
	var fps []uint64
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		v, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("experiments: fingerprint log line %d: %w", line, err)
		}
		fps = append(fps, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("experiments: fingerprint log line %d: %w", line+1, err)
	}
	return fps, nil
}

// FirstDivergentQuantum locates the first quantum at which two fingerprint
// logs of the same mission disagree. For genuine rolling chains the first
// mismatch is exactly where the mission state diverged (diverged-once-
// stays-diverged); the scan is deliberately linear rather than a binary
// search over that monotonicity, so a corrupted or hand-edited log — where
// a lone bad line re-agrees afterwards and the predicate is not monotone —
// is still caught instead of silently reported as identical. Returns
// ok=false when the logs agree over their common prefix and have equal
// length; when one log is a strict prefix of the other, the divergence is
// the first quantum only one run reached.
func FirstDivergentQuantum(a, b []uint64) (quantum int, ok bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i, true
		}
	}
	if len(a) != len(b) {
		return n, true
	}
	return 0, false
}

// DivergenceReport renders a one-line human summary of FirstDivergentQuantum
// for two named logs.
func DivergenceReport(nameA string, a []uint64, nameB string, b []uint64) string {
	q, ok := FirstDivergentQuantum(a, b)
	if !ok {
		return fmt.Sprintf("%s and %s agree: %d quanta, identical fingerprint chains", nameA, nameB, len(a))
	}
	detail := ""
	if q < len(a) && q < len(b) {
		detail = fmt.Sprintf(" (%016x vs %016x)", a[q], b[q])
	} else {
		detail = fmt.Sprintf(" (%s has %d quanta, %s has %d)", nameA, len(a), nameB, len(b))
	}
	return fmt.Sprintf("%s and %s diverge at quantum %d%s", nameA, nameB, q, detail)
}
