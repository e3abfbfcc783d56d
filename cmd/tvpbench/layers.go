package main

import (
	"encoding/json"
	"time"

	"repro/internal/emu"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// reportSectionMetrics are the report sections whose compute call is
// timed on its own (Table 2 and the storage model only render).
var reportSectionMetrics = []string{
	"table1", "fig1", "fig2", "fig3", "table3", "fig4a", "fig4b", "fig5", "fig6",
	"cpistacks", "ablation_silencing", "ablation_prefetch", "ablation_dynsilence", "ablation_validation",
}

var tiers = []string{"memory", "disk", "computed", "coalesced"}

// perLayerMetrics lists every per-layer metric a traced run prints, in
// order. Each workload measures the layers it calls; a layer it never
// calls reads 0 (README.md has the table).
func perLayerMetrics() []metric {
	ms := []metric{
		{"go.alloc_mb_per_op", 0, "MB"},
		{"go.gc_cpu_frac", 0, "frac"},
		{"workload.program_ms", 0, "ms"},
		{"emu.mips", 0, "MIPS"},
		{"emu.share", 0, "frac"},
		{"pipeline.new_ms", 0, "ms"},
		{"pipeline.run_mips", 0, "MIPS"},
		{"pipeline.ns_per_cycle", 0, "ns"},
		{"pipeline.skip_frac", 0, "frac"},
		{"pipeline.sim_cycles", 0, "count"},
		{"pipeline.cpi_cost_pct", 0, "%"},
		{"obs.telemetry_cost_pct", 0, "%"},
		{"pipeline.noskip_slowdown_x", 0, "x"},
		{"workload.fastwarmup_gain_x", 0, "x"},
		{"report.unique_points", 0, "count"},
		{"simcache.hit_ratio", 0, "frac"},
	}
	for _, s := range reportSectionMetrics {
		ms = append(ms, metric{"report." + s + "_ms", 0, "ms"})
	}
	ms = append(ms,
		metric{"report.write_ms", 0, "ms"},
		metric{"store.open_ms", 0, "ms"},
		metric{"store.get_p50_us", 0, "us"},
		metric{"store.get_p95_us", 0, "us"},
		metric{"store.put_p50_us", 0, "us"},
		metric{"store.put_p95_us", 0, "us"},
		metric{"store.record_bytes", 0, "bytes"},
		metric{"obs.encode_us", 0, "us"},
	)
	for _, t := range tiers {
		ms = append(ms, metric{"serve." + t + "_p50_ms", 0, "ms"})
	}
	for _, t := range tiers {
		ms = append(ms, metric{"serve.tier_frac." + t, 0, "frac"})
	}
	ms = append(ms,
		metric{"serve.handler_p50_ms", 0, "ms"},
		metric{"http.overhead_p50_ms", 0, "ms"},
		metric{"loadgen.late_p50_ms", 0, "ms"},
	)
	for _, l := range selfLayers {
		ms = append(ms, metric{"self_pct." + l, 0, "%"})
	}
	return append(ms, metric{"trace.coverage_pct", 0, "%"}, metric{"trace.overhead_pct", 0, "%"})
}

// fillLayers puts the per-layer metrics of a traced run in the canonical
// order, reading 0 for every layer the workload did not measure.
func (o *outcome) fillLayers() {
	if len(o.layer) == 0 {
		return
	}
	got := map[string]metric{}
	for _, m := range o.layer {
		got[m.Name] = m
	}
	all := perLayerMetrics()
	for i, m := range all {
		if g, ok := got[m.Name]; ok {
			all[i] = g
		}
	}
	o.layer = all
}

// pipeRun is one direct pipeline run's host cost and simulated size.
type pipeRun struct {
	newMS, runMS           float64
	insts, cycles, skipped uint64
}

// addPipeline reports the timing core's cost over the runs: construction
// time, speed, host time per cycle actually stepped, and the share of
// cycles skipped. simCycles is an exact count of simulated cycles, so a
// change that only speeds the simulator up must leave it unchanged.
func (o *outcome) addPipeline(runs []pipeRun, simCycles uint64) {
	var news []float64
	var runMS, insts, cycles, skipped float64
	for _, r := range runs {
		news = append(news, r.newMS)
		runMS += r.runMS
		insts += float64(r.insts)
		cycles += float64(r.cycles)
		skipped += float64(r.skipped)
	}
	o.addLayer("pipeline.new_ms", median(news), "ms")
	o.addLayer("pipeline.run_mips", ratio(insts, runMS)/1e3, "MIPS")
	o.addLayer("pipeline.ns_per_cycle", ratio(runMS*1e6, cycles-skipped), "ns")
	o.addLayer("pipeline.skip_frac", ratio(skipped, cycles), "frac")
	o.addLayer("pipeline.sim_cycles", float64(simCycles), "count")
}

// emuSide times the functional emulator alone over each point's full
// length (warmup included) and returns the total time in milliseconds.
// It reports emu.mips.
func (o *outcome) emuSide(pts []point) (float64, error) {
	var ms, insts float64
	for _, p := range pts {
		prg, err := workload.Program(p.Workload)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		n := emu.New(prg).Run(p.Warmup+p.Insts, nil)
		ms += sinceMS(start)
		insts += float64(n)
	}
	o.addLayer("emu.mips", ratio(insts, ms)/1e3, "MIPS")
	return ms, nil
}

// encodeRecords is how many records obs.encode_us encodes.
const encodeRecords = 200

// addEncodeCost times building and marshalling a run record, the work
// tvpd does for every answer, cycling over the given results.
func (o *outcome) addEncodeCost(pts []point, sts []stats.Sim) error {
	if len(pts) == 0 {
		return nil
	}
	metas := make([]obs.RunMeta, len(pts))
	for i, p := range pts {
		metas[i] = obs.RunMeta{Workload: p.Workload, Cfg: p.config(), Warmup: p.Warmup, Insts: p.Insts}
	}
	us := make([]float64, 0, encodeRecords)
	for i := range encodeRecords {
		start := time.Now()
		rec := obs.NewRunRecord(metas[i%len(pts)], sts[i%len(pts)])
		if _, err := json.Marshal(rec); err != nil {
			return err
		}
		us = append(us, sinceMS(start)*1e3)
	}
	o.addLayer("obs.encode_us", median(us), "us")
	return nil
}
