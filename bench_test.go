package tvp

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (DESIGN.md experiment index E1–E14). Each benchmark runs the
// corresponding experiment end to end on a reduced instruction budget and
// reports paper-style metrics through testing.B custom metrics, so
//
//	go test -bench=. -benchmem
//
// produces the whole evaluation sweep. cmd/tvpreport runs the same
// experiments at full length and prints the detailed per-benchmark rows.
//
// Experiment benchmarks reset the run memoization cache at the top of
// every iteration, so they time a from-scratch regeneration (while still
// benefiting from sharing within the experiment, as tvpreport does). The
// BenchmarkReportSweep* pair quantifies the cross-experiment cache win.

import (
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/workload"
)

// benchConfig keeps the full sweep affordable under `go test -bench`.
func benchConfig() report.Config {
	return report.Config{Warmup: 10_000, Insts: 60_000}
}

// sample is a representative slice of the suite (one per behavior class)
// used by the heavier multi-config benchmarks.
var sample = []string{
	"600_perlbench_s_1", // interpreter, MVP-visible booleans
	"602_gcc_s_2",       // the GVP-standout compiler point
	"605_mcf_s",         // DRAM-bound pointer chasing
	"623_xalancbmk_s",   // the paper's GVP outlier
	"654_roms_s",        // TVP×prefetcher interaction
	"648_exchange2_s",   // cache-resident high-IPC integer
}

func sampled() report.Config {
	c := benchConfig()
	c.Workloads = sample
	return c
}

// BenchmarkFig1ValueDistribution regenerates the dynamic value
// distribution (E1). Reported metric: percent of dynamic GPR results that
// are 0x0 (the paper's dominant value).
func BenchmarkFig1ValueDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.ResetRunCache()
		vs, err := report.Fig1(sampled(), 10)
		if err != nil {
			b.Fatal(err)
		}
		if vs[0].Value == 0 {
			b.ReportMetric(vs[0].Percent, "%zero")
		}
	}
}

// BenchmarkFig2BaselineIPC regenerates µop expansion and baseline IPC
// (E2). Metrics: mean µops/instruction and harmonic-mean IPC.
func BenchmarkFig2BaselineIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.ResetRunCache()
		_, uops, ipc, err := report.Fig2(sampled())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(uops, "uops/inst")
		b.ReportMetric(ipc, "hmean-IPC")
	}
}

// BenchmarkFig3VPSpeedup regenerates the MVP/TVP/GVP speedup figure (E3).
// Metrics: geomean speedup percentages per flavor.
func BenchmarkFig3VPSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.ResetRunCache()
		_, sum, err := report.Fig3(sampled())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.GeomeanSpeedup[0], "MVP%")
		b.ReportMetric(sum.GeomeanSpeedup[1], "TVP%")
		b.ReportMetric(sum.GeomeanSpeedup[2], "GVP%")
	}
}

// BenchmarkTable3BudgetSweep regenerates the predictor budget study (E4).
// Metric: GVP geomean at the Table 2 scale.
func BenchmarkTable3BudgetSweep(b *testing.B) {
	c := sampled()
	c.Workloads = []string{"623_xalancbmk_s", "602_gcc_s_2"}
	for i := 0; i < b.N; i++ {
		report.ResetRunCache()
		rows, err := report.Table3(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Geomean[2], "GVP%@1x")
		b.ReportMetric(rows[1].StorageKB[2], "GVP-KB")
	}
}

// BenchmarkFig4RenameEliminations regenerates the elimination breakdown
// (E5). Metrics: mean move-elimination and SpSR percentages (TVP+SpSR).
func BenchmarkFig4RenameEliminations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.ResetRunCache()
		_, mean, err := report.Fig4(sampled(), config.TVP)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean.Move, "move%")
		b.ReportMetric(mean.SpSR, "spsr%")
		b.ReportMetric(mean.NineBit, "9bit%")
	}
}

// BenchmarkFig5SpSRSpeedup regenerates the SpSR speedup comparison (E6).
// Metrics: TVP and TVP+SpSR geomeans.
func BenchmarkFig5SpSRSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.ResetRunCache()
		_, geo, err := report.Fig5(sampled())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(geo[2], "TVP%")
		b.ReportMetric(geo[3], "TVP+SpSR%")
	}
}

// BenchmarkFig6Activity regenerates the PRF/IQ activity proxies (E7).
// Metrics: TVP+SpSR INT PRF writes and IQ dispatches vs baseline.
func BenchmarkFig6Activity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.ResetRunCache()
		rows, err := report.Fig6(sampled())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[3].IntPRFWrites, "TVP+SpSR-PRFwr%")
		b.ReportMetric(rows[3].IQAdded, "TVP+SpSR-IQadd%")
	}
}

// BenchmarkAblationSilencing sweeps the misprediction silencing window
// (E13).
func BenchmarkAblationSilencing(b *testing.B) {
	c := benchConfig()
	c.Workloads = []string{"600_perlbench_s_1", "641_leela_s"}
	for i := 0; i < b.N; i++ {
		report.ResetRunCache()
		rows, err := report.AblationSilencing(c, []int{15, 250})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Geomean[0], "MVP%@15c")
		b.ReportMetric(rows[1].Geomean[0], "MVP%@250c")
	}
}

// BenchmarkAblationPrefetch runs the §6.2 stride-prefetcher interaction
// study (E14) on roms.
func BenchmarkAblationPrefetch(b *testing.B) {
	c := benchConfig()
	c.Workloads = []string{"654_roms_s"}
	for i := 0; i < b.N; i++ {
		report.ResetRunCache()
		rows, err := report.AblationPrefetch(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].WithStride, "with%")
		b.ReportMetric(rows[0].WithoutStride, "without%")
	}
}

// reportSweep regenerates the core speedup experiments (Fig. 3, Fig. 5,
// Table 3) back to back, the way cmd/tvpreport does. With memoization the
// Fig. 5 MVP/TVP points and the Table 3 1× row replay Fig. 3's runs and
// every experiment shares one set of baselines.
func reportSweep(b *testing.B, c report.Config) {
	if _, _, err := report.Fig3(c); err != nil {
		b.Fatal(err)
	}
	if _, _, err := report.Fig5(c); err != nil {
		b.Fatal(err)
	}
	if _, err := report.Table3(c); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReportSweep times the memoized multi-experiment sweep (E3, E6,
// E4 back to back). Compare against BenchmarkReportSweepNoCache for the
// cross-experiment cache win.
func BenchmarkReportSweep(b *testing.B) {
	c := sampled()
	c.Workloads = sample[:3]
	for i := 0; i < b.N; i++ {
		report.ResetRunCache()
		reportSweep(b, c)
	}
}

// BenchmarkReportSweepNoCache is the same sweep with memoization bypassed:
// every simulation point is re-simulated, as the pre-cache harness did.
func BenchmarkReportSweepNoCache(b *testing.B) {
	c := sampled()
	c.Workloads = sample[:3]
	c.NoCache = true
	for i := 0; i < b.N; i++ {
		reportSweep(b, c)
	}
}

// BenchmarkSimThroughput measures raw simulation speed on the baseline
// machine — the practical limit on experiment scale. The headline metric
// is MIPS (simulated megainstructions per wall second); allocation counts
// track the hot-path churn that bounds it.
func BenchmarkSimThroughput(b *testing.B) {
	b.ReportAllocs()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(Options{Workload: "648_exchange2_s", Warmup: 0, MaxInsts: 100_000})
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Committed
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkSimThroughputLowIPC is the low-IPC counterpart on the
// DRAM-bound pointer chaser: long miss chains keep the window drained,
// so this point is dominated by cycle skipping and commit-side work
// where BenchmarkSimThroughput (cache-resident, issue-bound) is
// dominated by the wakeup scoreboard. bench-guard floors both, so a
// regression confined to either regime still trips the gate.
func BenchmarkSimThroughputLowIPC(b *testing.B) {
	b.ReportAllocs()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(Options{Workload: "605_mcf_s", Warmup: 0, MaxInsts: 100_000})
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Committed
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkSimulatorThroughput is the historical name of the throughput
// benchmark, kept so BENCH_*.json series remain comparable.
func BenchmarkSimulatorThroughput(b *testing.B) {
	BenchmarkSimThroughput(b)
}

// BenchmarkSimThroughputTelemetry is BenchmarkSimThroughput with the full
// telemetry layer attached (interval sampler at the default period plus
// the three attribution tables), quantifying the observation overhead
// that BENCH_PR2.json reports against the telemetry-off baseline.
func BenchmarkSimThroughputTelemetry(b *testing.B) {
	b.ReportAllocs()
	p, err := workload.Program("648_exchange2_s")
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	for i := 0; i < b.N; i++ {
		core := pipeline.New(config.Default(), p)
		core.SetProbe(obs.New(obs.Config{}))
		res := core.Run(0, 100_000)
		insts += res.Committed
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkSimulatorThroughputVP measures simulation speed with the full
// TVP+SpSR machinery engaged.
func BenchmarkSimulatorThroughputVP(b *testing.B) {
	b.ReportAllocs()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(Options{Workload: "602_gcc_s_2", VP: TVP, SpSR: true, Warmup: 0, MaxInsts: 100_000})
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Committed
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "MIPS")
}
