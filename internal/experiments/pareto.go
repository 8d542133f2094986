package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/dnn"
	"repro/internal/gemmini"
	"repro/internal/ort"
	"repro/internal/soc"
	"repro/internal/telemetry"
)

// Pareto sweeps the hardware configurations (Table 2's A/B/C) crossed with
// the inference precision ({fp32, int8}) over both evaluation maps and
// reports simulated energy against mission latency — the energy-Pareto view
// the cycle-only sweeps cannot show: config C (no accelerator) trades energy
// for latency, and int8 trades a little accuracy for strictly less energy
// per inference on the accelerated path.
func Pareto(opt Options) (*Report, error) {
	model := "ResNet6"
	maps := []string{"tunnel", "s-shape"}
	if opt.Quick {
		maps = maps[:1]
	}
	precs := []dnn.Precision{dnn.PrecisionFP32, dnn.PrecisionInt8}

	type point struct {
		hw   config.HW
		mp   string
		prec dnn.Precision
	}
	var pts []point
	var specs []MissionSpec
	for _, mp := range maps {
		for _, hw := range config.All() {
			for _, p := range precs {
				// Precision is the sweep axis here, so the sweep-wide stamp
				// (which would overwrite it with opt.Precision) cannot be
				// used; Overlap and Obs are applied by hand instead.
				specs = append(specs, MissionSpec{
					Map: mp, Model: model, HW: hw,
					VForward:  3,
					Seed:      7,
					MaxSimSec: opt.maxSimSec(),
					Overlap:   opt.Overlap,
					Obs:       opt.Obs.Parent(),
					Precision: p,
				})
				pts = append(pts, point{hw, mp, p})
			}
		}
	}

	r := &Report{
		ID:    "pareto",
		Title: fmt.Sprintf("Energy-Pareto sweep: hw {A,B,C} x precision {fp32,int8} x %d map(s), %s", len(maps), model),
	}

	// Train once outside the timed missions.
	if _, err := dnn.Trained(model); err != nil {
		return nil, err
	}
	outs, err := runMissions(specs, opt.Workers)
	if err != nil {
		return nil, err
	}

	// Per-inference dynamic energy, priced analytically with the same
	// helpers the engine charges through — the controlled column that shows
	// the int8-vs-fp32 gap independent of mission length.
	perInfPJ := func(hw config.HW, p dnn.Precision) (uint64, error) {
		trained, err := dnn.Trained(model)
		if err != nil {
			return 0, err
		}
		sess, err := ort.NewSessionP(trained.Net, gemmini.Default(), p)
		if err != nil {
			return 0, err
		}
		cpuPJ, accelPJ := sess.PredictEnergy(soc.Core(hw.Core), soc.EnergyFor(hw.Core, hw.Gemmini),
			soc.DefaultParams(), hw.Gemmini)
		return cpuPJ + accelPJ, nil
	}

	series := map[string]*telemetry.Series{}
	table := [][]string{paretoPointColumns}
	for i, out := range outs {
		pt := pts[i]
		res := out.Result
		infPJ, err := perInfPJ(pt.hw, pt.prec)
		if err != nil {
			return nil, err
		}
		b := res.Energy
		table = append(table, []string{
			pt.hw.Name, pt.mp, precName(pt.prec),
			fmt.Sprintf("%.3f", res.MissionTimeSec), fmt.Sprintf("%v", res.Completed),
			fmt.Sprintf("%.6f", b.TotalJoules()),
			fmt.Sprintf("%.6f", float64(b.Dynamic.CorePJ)*1e-12),
			fmt.Sprintf("%.6f", float64(b.Dynamic.AccelPJ)*1e-12),
			fmt.Sprintf("%.6f", float64(b.Dynamic.MemPJ)*1e-12),
			fmt.Sprintf("%.6f", float64(b.Static.TotalPJ())*1e-12),
			fmt.Sprintf("%.3f", b.AvgPowerWatts(res.Cycles, 1e9)*1e3),
			fmt.Sprintf("%.3f", float64(infPJ)*1e-6),
		})
		r.line("hw %s  %-7s  %-5s: mission=%6.2fs done=%-5v  E=%7.4fJ (core %.4f, accel %.4f, mem %.4f, static %.4f)  avgP=%6.1fmW  E/inf=%8.1fµJ",
			pt.hw.Name, pt.mp, precName(pt.prec),
			res.MissionTimeSec, res.Completed,
			b.TotalJoules(),
			float64(b.Dynamic.CorePJ)*1e-12, float64(b.Dynamic.AccelPJ)*1e-12,
			float64(b.Dynamic.MemPJ)*1e-12, float64(b.Static.TotalPJ())*1e-12,
			b.AvgPowerWatts(res.Cycles, 1e9)*1e3,
			float64(infPJ)*1e-6)
		name := "pareto_" + pt.mp
		s := series[name]
		if s == nil {
			s = &telemetry.Series{Name: name}
			series[name] = s
		}
		s.Add(res.MissionTimeSec, b.TotalJoules())
	}
	for _, mp := range maps {
		if s := series["pareto_"+mp]; s != nil {
			r.Series = append(r.Series, *s)
		}
	}
	r.Tables = map[string][][]string{"points": table}

	// The headline Pareto fact: on every accelerated configuration the int8
	// datapath costs strictly less energy per inference than fp32.
	for _, hw := range config.All() {
		if !hw.Gemmini {
			continue
		}
		fp, err := perInfPJ(hw, dnn.PrecisionFP32)
		if err != nil {
			return nil, err
		}
		q, err := perInfPJ(hw, dnn.PrecisionInt8)
		if err != nil {
			return nil, err
		}
		r.line("hw %s accel path: int8 %.1fµJ/inf vs fp32 %.1fµJ/inf (%.2fx)",
			hw.Name, float64(q)*1e-6, float64(fp)*1e-6, float64(q)/float64(fp))
		if q >= fp {
			return nil, fmt.Errorf("experiments: pareto: int8 energy/inference (%d pJ) not below fp32 (%d pJ) on hw %s", q, fp, hw.Name)
		}
	}
	return r, nil
}

// paretoPointColumns is the header of the exported point table; the report
// test pins it so downstream CSV consumers get a stable schema.
var paretoPointColumns = []string{
	"hw", "map", "precision", "mission_s", "completed",
	"energy_j", "core_j", "accel_j", "mem_j", "static_j",
	"avg_power_mw", "energy_per_inf_uj",
}

// precName renders a dnn.Precision for report rows.
func precName(p dnn.Precision) string {
	if p == dnn.PrecisionInt8 {
		return "int8"
	}
	return "fp32"
}
