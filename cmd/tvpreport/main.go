// Command tvpreport regenerates the paper's tables and figures on the
// synthetic workload suite (see DESIGN.md's experiment index). With no
// selection flags it produces the full report used for EXPERIMENTS.md.
//
// Identical simulation points (workload, machine fingerprint, warmup,
// insts) are memoized across experiments, so e.g. the baseline runs
// shared by Figs. 2/3/5/6 and Table 3 are simulated once, and a
// silencing-ablation point whose default-silencing run never silenced
// the value predictor shares that run.
//
// Usage:
//
//	tvpreport                 # everything
//	tvpreport -fig 3          # one figure (1..6)
//	tvpreport -table 1        # one table (1..3)
//	tvpreport -storage        # §3.3 predictor storage model
//	tvpreport -ablation silencing|prefetch
//	tvpreport -insts 250000 -warmup 50000
//	tvpreport -nocache        # re-simulate every point (no memoization, no sharing)
//	tvpreport -cpistack       # top-down CPI stack, base vs TVP+SpSR
//	tvpreport -j 4            # bound the sweep worker pool (0 = all CPU cores)
//	tvpreport -json out/      # also write machine-readable run records
//	tvpreport -cpuprofile report.pprof -fig 3
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "regenerate one figure (1-6)")
		table      = flag.Int("table", 0, "regenerate one table (1-3)")
		storage    = flag.Bool("storage", false, "print the predictor storage model")
		ablation   = flag.String("ablation", "", "run an ablation: silencing|prefetch|dynsilence|validation")
		warm       = flag.Uint64("warmup", 50_000, "warmup instructions per run")
		insts      = flag.Uint64("insts", 250_000, "measured instructions per run")
		nocache    = flag.Bool("nocache", false, "simulate every point: no memoization and no sharing")
		cpistack   = flag.Bool("cpistack", false, "print the top-down CPI-stack cycle accounting (base vs TVP+SpSR)")
		workers    = flag.Int("j", 0, "concurrent simulation workers for sweeps (0 = all CPU cores); results are byte-identical at any -j")
		cacheStats = flag.Bool("cachestats", false, "print run-cache hit/miss counters on exit")
		jsonDir    = flag.String("json", "", "write machine-readable run records (one JSON file per point + sweep.json) into this directory")
		progress   = flag.Bool("progress", true, "print a live sweep heartbeat to stderr (runs done/total, cache recalls, MIPS, ETA)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *fig < 0 || *fig > 6 {
		fatal(fmt.Errorf("-fig %d out of range (want 1-6)", *fig))
	}
	if *table < 0 || *table > 3 {
		fatal(fmt.Errorf("-table %d out of range (want 1-3)", *table))
	}
	switch *ablation {
	case "", "silencing", "prefetch", "dynsilence", "validation":
	default:
		fatal(fmt.Errorf("unknown ablation %q (want silencing|prefetch|dynsilence|validation)", *ablation))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *workers < 0 {
		fatal(fmt.Errorf("-j %d out of range (want >= 0)", *workers))
	}
	cfg := report.Config{Warmup: *warm, Insts: *insts, NoCache: *nocache, Workers: *workers}
	if *progress || *jsonDir != "" {
		cfg.Obs = obs.NewSweepLog()
	}
	if *progress {
		cfg.Obs.Progress(os.Stderr, cfg.EffectiveWorkers())
	}
	w := os.Stdout
	all := *fig == 0 && *table == 0 && !*storage && !*cpistack && *ablation == ""

	if all || *table == 2 {
		report.WriteTable2(w, config.Default())
		fmt.Fprintln(w)
	}
	if all || *storage {
		report.WriteStorage(w, config.Default())
		fmt.Fprintln(w)
	}
	if all || *table == 1 {
		report.WriteTable1(w, report.Table1())
		fmt.Fprintln(w)
	}
	if all || *fig == 1 {
		vs, err := report.Fig1(cfg, 20)
		if err != nil {
			fatal(err)
		}
		report.WriteFig1(w, vs)
		fmt.Fprintln(w)
	}
	if all || *fig == 2 {
		rows, mu, hi, err := report.Fig2(cfg)
		if err != nil {
			fatal(err)
		}
		report.WriteFig2(w, rows, mu, hi)
		fmt.Fprintln(w)
	}
	if all || *fig == 3 {
		rows, sum, err := report.Fig3(cfg)
		if err != nil {
			fatal(err)
		}
		report.WriteFig3(w, rows, sum)
		fmt.Fprintln(w)
	}
	if all || *table == 3 {
		rows, err := report.Table3(cfg)
		if err != nil {
			fatal(err)
		}
		report.WriteTable3(w, rows)
		fmt.Fprintln(w)
	}
	if all || *fig == 4 {
		rows, mean, err := report.Fig4(cfg, config.MVP)
		if err != nil {
			fatal(err)
		}
		report.WriteFig4(w, "Fig. 4a — % dynamic instructions eliminated at rename (MVP + SpSR)", rows, mean)
		fmt.Fprintln(w)
		rows, mean, err = report.Fig4(cfg, config.TVP)
		if err != nil {
			fatal(err)
		}
		report.WriteFig4(w, "Fig. 4b — % dynamic instructions eliminated at rename (TVP + SpSR)", rows, mean)
		fmt.Fprintln(w)
	}
	if all || *fig == 5 {
		rows, geo, err := report.Fig5(cfg)
		if err != nil {
			fatal(err)
		}
		report.WriteFig5(w, rows, geo)
		fmt.Fprintln(w)
	}
	if all || *fig == 6 {
		rows, err := report.Fig6(cfg)
		if err != nil {
			fatal(err)
		}
		report.WriteFig6(w, rows)
		fmt.Fprintln(w)
	}
	if all || *cpistack {
		rows, err := report.CPIStacks(cfg)
		if err != nil {
			fatal(err)
		}
		report.WriteCPIStacks(w, rows)
		fmt.Fprintln(w)
	}
	if all || *ablation == "silencing" {
		// Window 0 is deliberately absent: without silencing the
		// refetched instruction immediately re-uses the same wrong
		// confident prediction and the machine livelocks, exactly as
		// §3.4.1 warns (see TestLivelockWithoutSilencing).
		rows, err := report.AblationSilencing(cfg, []int{15, 60, 250, 1000})
		if err != nil {
			fatal(err)
		}
		report.WriteSilencing(w, rows)
		fmt.Fprintln(w)
	}
	if all || *ablation == "prefetch" {
		rows, err := report.AblationPrefetch(cfg)
		if err != nil {
			fatal(err)
		}
		report.WritePrefetch(w, rows)
		fmt.Fprintln(w)
	}
	if all || *ablation == "dynsilence" {
		fixed, dynamic, err := report.AblationDynamicSilence(cfg)
		if err != nil {
			fatal(err)
		}
		report.WriteDynamicSilence(w, fixed, dynamic)
		fmt.Fprintln(w)
	}
	if all || *ablation == "validation" {
		sp, rd, err := report.AblationValidation(cfg)
		if err != nil {
			fatal(err)
		}
		report.WriteValidation(w, sp, rd)
		fmt.Fprintln(w)
	}

	if cfg.Obs != nil {
		cfg.Obs.Finish()
	}
	if *jsonDir != "" {
		hits, misses := report.RunCacheCounters()
		if err := cfg.Obs.WriteDir(*jsonDir, hits, misses); err != nil {
			fatal(err)
		}
	}
	if *cacheStats {
		hits, misses := report.RunCacheCounters()
		fmt.Fprintf(os.Stderr, "run cache: %d hits, %d misses (%d unique points)\n", hits, misses, misses)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tvpreport:", err)
	os.Exit(1)
}
