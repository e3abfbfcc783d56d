package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/report"
)

// reportSection is one section of the flagless tvpreport output: a
// compute call that returns how to render its result.
type reportSection struct {
	name    string
	compute func(report.Config) (func(io.Writer), error)
}

// reportSections are the sections flagless tvpreport produces, in its
// order, with the same arguments.
var reportSections = []reportSection{
	{"table2", func(report.Config) (func(io.Writer), error) {
		return func(w io.Writer) { report.WriteTable2(w, config.Default()) }, nil
	}},
	{"storage", func(report.Config) (func(io.Writer), error) {
		return func(w io.Writer) { report.WriteStorage(w, config.Default()) }, nil
	}},
	{"table1", func(report.Config) (func(io.Writer), error) {
		cases := report.Table1()
		return func(w io.Writer) { report.WriteTable1(w, cases) }, nil
	}},
	{"fig1", func(c report.Config) (func(io.Writer), error) {
		vs, err := report.Fig1(c, 20)
		return func(w io.Writer) { report.WriteFig1(w, vs) }, err
	}},
	{"fig2", func(c report.Config) (func(io.Writer), error) {
		rows, mu, hi, err := report.Fig2(c)
		return func(w io.Writer) { report.WriteFig2(w, rows, mu, hi) }, err
	}},
	{"fig3", func(c report.Config) (func(io.Writer), error) {
		rows, sum, err := report.Fig3(c)
		return func(w io.Writer) { report.WriteFig3(w, rows, sum) }, err
	}},
	{"table3", func(c report.Config) (func(io.Writer), error) {
		rows, err := report.Table3(c)
		return func(w io.Writer) { report.WriteTable3(w, rows) }, err
	}},
	{"fig4a", func(c report.Config) (func(io.Writer), error) {
		rows, mean, err := report.Fig4(c, config.MVP)
		return func(w io.Writer) {
			report.WriteFig4(w, "Fig. 4a — % dynamic instructions eliminated at rename (MVP + SpSR)", rows, mean)
		}, err
	}},
	{"fig4b", func(c report.Config) (func(io.Writer), error) {
		rows, mean, err := report.Fig4(c, config.TVP)
		return func(w io.Writer) {
			report.WriteFig4(w, "Fig. 4b — % dynamic instructions eliminated at rename (TVP + SpSR)", rows, mean)
		}, err
	}},
	{"fig5", func(c report.Config) (func(io.Writer), error) {
		rows, geo, err := report.Fig5(c)
		return func(w io.Writer) { report.WriteFig5(w, rows, geo) }, err
	}},
	{"fig6", func(c report.Config) (func(io.Writer), error) {
		rows, err := report.Fig6(c)
		return func(w io.Writer) { report.WriteFig6(w, rows) }, err
	}},
	{"cpistacks", func(c report.Config) (func(io.Writer), error) {
		rows, err := report.CPIStacks(c)
		return func(w io.Writer) { report.WriteCPIStacks(w, rows) }, err
	}},
	{"ablation_silencing", func(c report.Config) (func(io.Writer), error) {
		rows, err := report.AblationSilencing(c, []int{15, 60, 250, 1000})
		return func(w io.Writer) { report.WriteSilencing(w, rows) }, err
	}},
	{"ablation_prefetch", func(c report.Config) (func(io.Writer), error) {
		rows, err := report.AblationPrefetch(c)
		return func(w io.Writer) { report.WritePrefetch(w, rows) }, err
	}},
	{"ablation_dynsilence", func(c report.Config) (func(io.Writer), error) {
		fixed, dynamic, err := report.AblationDynamicSilence(c)
		return func(w io.Writer) { report.WriteDynamicSilence(w, fixed, dynamic) }, err
	}},
	{"ablation_validation", func(c report.Config) (func(io.Writer), error) {
		sp, rd, err := report.AblationValidation(c)
		return func(w io.Writer) { report.WriteValidation(w, sp, rd) }, err
	}},
}

// reportIteration regenerates the whole report from an empty run cache
// and returns the rendered bytes.
func reportIteration(c report.Config, tr *tracer, req int64) ([]byte, error) {
	var buf bytes.Buffer
	op := tr.begin(rootName, 0, req)
	sp := tr.begin("report.reset", op.ID, req)
	report.ResetRunCache()
	report.ResetCPICache()
	tr.end(sp)
	for _, s := range reportSections {
		sp := tr.begin("report."+s.name, op.ID, req)
		render, err := s.compute(c)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		sp = tr.begin("report.write", op.ID, req)
		render(&buf)
		fmt.Fprintln(&buf)
		tr.end(sp)
	}
	tr.end(op)
	return buf.Bytes(), nil
}

// reportPhase regenerates the report for length and returns each
// iteration's wall time, its output, and the run cache's hits and
// misses summed over the iterations.
func (b *bench) reportPhase(c report.Config, length time.Duration) (ms []float64, outs [][]byte, hits, misses uint64, err error) {
	var last time.Duration
	start := time.Now()
	for i := 0; keepRunning(start, i, last, length); i++ {
		is := time.Now()
		out, err := reportIteration(c, b.tr, int64(i+1))
		if err != nil {
			return nil, nil, 0, 0, err
		}
		last = time.Since(is)
		h, m := report.RunCacheCounters()
		hits, misses = hits+h, misses+m
		ms = append(ms, float64(last.Nanoseconds())/1e6)
		outs = append(outs, out)
	}
	return ms, outs, hits, misses, nil
}

// runReportSweep drives report-sweep: a closed loop, one caller, each op
// the full flagless report over the seed's suite members. The pool has
// one worker: on a shared two-vCPU host a two-worker pool's report time
// swung by half between runs minutes apart, as neighbours took a share
// of the second CPU, while one worker's stayed within 5%.
func runReportSweep(b *bench) error {
	members := reportMembers(b.opt.seed)
	c := report.Config{
		Warmup:    scaled(10_000, b.opt.scale),
		Insts:     scaled(60_000, b.opt.scale),
		Workers:   1,
		Workloads: members,
	}
	var buildMS []float64
	err := b.medianSetup(func() error {
		start := time.Now()
		err := buildPrograms(members)
		buildMS = append(buildMS, sinceMS(start))
		return err
	})
	if err != nil {
		return err
	}
	if _, err := reportIteration(c, nil, 0); err != nil { // warm-up
		return err
	}

	before := readRuntime()
	ms, outs, hits, misses, err := b.reportPhase(c, b.phaseSeconds())
	if err != nil {
		return err
	}
	after := readRuntime()

	// The reference pass: two workers, no memoization. Every iteration
	// must render the same bytes. Its run log counts the unique points.
	ref := c
	ref.Workers, ref.NoCache, ref.Obs = 2, true, obs.NewSweepLog()
	want, err := reportIteration(ref, nil, 0)
	if err != nil {
		return err
	}
	for i, out := range outs {
		b.out.check(bytes.Equal(out, want), "report iteration %d differs from the two-worker uncached pass", i)
	}
	b.out.digests["report"] = digest(want)
	unique := float64(len(ref.Obs.Records()))

	p50 := median(ms)
	b.out.addE2E("op_p50_ms", p50, "ms")
	b.out.addE2E("sim_mips", unique*float64(c.Warmup+c.Insts)/p50/1e3, "MIPS")
	b.out.addInfo("report_s", p50/1e3, "s")
	b.out.addInfo("ops", float64(len(ms)), "count")
	b.out.samples["op_ms"] = ms
	if !b.opt.traced {
		return nil
	}

	b.tr = newTracer()
	tms, touts, _, _, err := b.reportPhase(c, b.phaseSeconds())
	if err != nil {
		return err
	}
	for i, out := range touts {
		b.out.check(bytes.Equal(out, want), "traced report iteration %d differs from the two-worker uncached pass", i)
	}
	b.out.samples["traced_op_ms"] = tms
	spans := b.tr.snapshot()
	b.out.addRuntime(before, after, len(ms))
	b.out.addLayer("workload.program_ms", median(buildMS), "ms")
	b.out.addLayer("report.unique_points", unique, "count")
	b.out.addLayer("simcache.hit_ratio", ratio(float64(hits), float64(hits+misses)), "frac")
	for _, s := range reportSectionMetrics {
		b.out.addLayer("report."+s+"_ms", median(durationsMS(spans, "report."+s)), "ms")
	}
	b.out.addLayer("report.write_ms", sum(durationsMS(spans, "report.write"))/float64(len(tms)), "ms")

	// Side measurements on the report's first points: each member on the
	// baseline (vpModes[0]) and under TVP+SpSR (vpModes[2]).
	var pts []point
	for _, m := range members {
		pts = append(pts,
			point{Workload: m, VP: 0, Warmup: c.Warmup, Insts: c.Insts},
			point{Workload: m, VP: 2, SpSR: true, Warmup: c.Warmup, Insts: c.Insts})
	}
	if err := b.pricePoints(pts); err != nil {
		return err
	}
	if _, err := b.out.emuSide(pts); err != nil {
		return err
	}
	b.out.addTraceMetrics(spans, p50, median(tms))
	return nil
}
