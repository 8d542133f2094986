package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// FleetStrip renders the latest quantum record of each mission as one
// table — the body of the rose-top display. It shares the HealthStrip
// formatting helpers so live and post-run views read the same way. Rows
// are sorted by mission ID ("" — a solo rose-sim run — sorts first and
// prints as "-").
func FleetStrip(recs []obs.QuantumRecord) string {
	rows := append([]obs.QuantumRecord(nil), recs...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Mission < rows[j].Mission })

	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %7s %17s %5s %9s %8s %14s %9s  %s\n",
		"mission", "quantum", "t", "pos", "coll", "cycles", "power",
		"infer(mean)", "q-wall", "fingerprint")
	for _, q := range rows {
		name := q.Mission
		if name == "" {
			name = "-"
		}
		tel := q.Telemetry
		status := ""
		if tel.MissionComplete {
			status = " done"
		}
		fmt.Fprintf(&b, "%-10s %8d %7s %17s %5d %9s %8s %14s %9s  %s%s\n",
			name, q.Seq, fmtSec(tel.TimeSec),
			fmt.Sprintf("(%6.1f,%6.1f)", tel.PosX, tel.PosY),
			tel.CollisionCount, fmtCount(q.Cycles), fmtWatts(float64(q.PowerMW)*1e-3),
			fmt.Sprintf("%d (%s)", q.Inferences, fmtSec(q.InferMeanSec)),
			fmtSec(float64(q.WallNs)*1e-9), q.Fingerprint, status)
	}
	return b.String()
}

// fmtCount prints a large count with a metric suffix (cycles, frames).
func fmtCount(n uint64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}
