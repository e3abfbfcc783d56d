// Command tvpsim runs one workload (or the whole suite) on a chosen
// machine configuration and prints the headline statistics. It is the
// interactive companion to cmd/tvpreport, which regenerates the paper's
// tables and figures.
//
// Usage:
//
//	tvpsim -workload 602_gcc_s_1 -vp tvp -spsr -insts 300000
//	tvpsim -all -vp gvp
//	tvpsim -workload 602_gcc_s_1 -vp tvp -json > run.ndjson
//	tvpsim -workload 602_gcc_s_1 -vp tvp -cpistack
//	tvpsim -workload 602_gcc_s_1 -konata trace.log
//	tvpsim -verify prog.tvpb
//	tvpsim -load prog.tvpb -vp tvp
//	tvpsim -list
//
// -verify statically lints a TVPB-encoded binary (internal/isa/verify)
// and exits nonzero on any Error-severity finding without simulating.
// -load ingests a binary through the same verifier gate and, if it is
// admitted, simulates it with the shadow-emulator retire checker
// forced on and prints the functional architectural hash alongside the
// usual statistics row — a rejected binary exits nonzero with the
// structured diagnostics on stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	tvp "repro"
	"repro/internal/config"
	"repro/internal/emu"
	"repro/internal/isa/verify"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runCompare runs baseline, MVP, TVP and GVP on each workload and prints
// per-benchmark speedups plus coverage, mirroring the paper's Fig. 3.
// It returns the number of failed runs.
func runCompare(names []string, spsr bool, warm, insts uint64, xcheck bool) int {
	modes := []tvp.VPMode{tvp.VPOff, tvp.MVP, tvp.TVP, tvp.GVP}
	var opts []tvp.Options
	for _, n := range names {
		for _, m := range modes {
			opts = append(opts, tvp.Options{Workload: n, VP: m, SpSR: spsr && m != tvp.VPOff, Warmup: warm, MaxInsts: insts, CrossCheck: xcheck})
		}
	}
	results, errs := tvp.RunMany(opts)
	fmt.Printf("%-22s %8s | %8s %7s | %8s %7s | %8s %7s\n",
		"workload", "baseIPC", "MVP%", "cov%", "TVP%", "cov%", "GVP%", "cov%")
	var sp [3][]float64
	nerr := 0
	for i, n := range names {
		row := results[i*4 : i*4+4]
		bad := false
		for j := 0; j < 4; j++ {
			if errs[i*4+j] != nil {
				fmt.Printf("%-22s error: %v\n", n, errs[i*4+j])
				nerr++
				bad = true
			}
		}
		if bad {
			continue
		}
		base := row[0].Stats.IPC()
		fmt.Printf("%-22s %8.3f |", n, base)
		for j := 1; j < 4; j++ {
			stj := &row[j].Stats
			up := (stj.IPC()/base - 1) * 100
			sp[j-1] = append(sp[j-1], up)
			fmt.Printf(" %+8.2f %7.2f |", up, 100*stj.VPCoverage())
		}
		fmt.Println()
	}
	fmt.Printf("%-22s %8s |", "geomean", "")
	for j := 0; j < 3; j++ {
		if len(sp[j]) == 0 {
			fmt.Printf(" %8s %7s |", "-", "")
			continue
		}
		fmt.Printf(" %+8.2f %7s |", stats.GeomeanSpeedup(sp[j]), "")
	}
	fmt.Println()
	return nerr
}

// runInstrumented simulates the named workloads serially with telemetry
// attached: interval sampling and per-PC attribution always; a Kanata
// trace when konataPath is non-empty. With jsonOut it writes one
// obs.RunRecord per workload as NDJSON on stdout; otherwise it prints
// the usual human table rows. Returns the number of failed runs.
func runInstrumented(names []string, mode tvp.VPMode, spsr bool, warm, insts uint64, interval uint64, topk int, jsonOut bool, konataPath string, xcheck bool) int {
	cfg := config.Default().WithVP(mode).WithSpSR(spsr)
	cfg.CrossCheck = xcheck
	enc := json.NewEncoder(os.Stdout)
	if !jsonOut {
		printHeader()
	}
	nerr := 0
	for _, n := range names {
		tel := obs.New(obs.Config{Interval: interval, TopK: topk})
		a := report.Attach{Probe: tel}
		var konata *obs.Konata
		if konataPath != "" {
			f, err := os.Create(konataPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tvpsim:", err)
				return nerr + 1
			}
			defer f.Close()
			konata = obs.NewKonata(f, 0)
			a.Tracer = konata
		}
		p := report.Point{Workload: n, Cfg: cfg, Warmup: warm, Insts: insts}
		res, err := report.Execute(context.Background(), p, a)
		if konata != nil {
			if cerr := konata.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tvpsim:", err)
			nerr++
			continue
		}
		rec := tel.Record(obs.RunMeta{Workload: n, Cfg: cfg, Warmup: warm, Insts: insts}, res.Stats)
		if jsonOut {
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintln(os.Stderr, "tvpsim:", err)
				nerr++
			}
		} else {
			printRow(n, &res.Stats)
		}
	}
	return nerr
}

// runPipetrace attaches a pipeline-view tracer and simulates just far
// enough to print the first n committed µops.
func runPipetrace(name string, mode tvp.VPMode, spsr bool, n int) error {
	cfg := config.Default().WithVP(mode).WithSpSR(spsr)
	p := report.Point{Workload: name, Cfg: cfg, Insts: uint64(n) + 64}
	_, err := report.Execute(context.Background(), p, report.Attach{
		Tracer: pipeline.NewPipeview(os.Stdout, n),
	})
	return err
}

// runVerifyOnly statically verifies a TVPB container and prints every
// finding (Info/Warn/Error). Exit status: 0 admitted, 2 rejected.
func runVerifyOnly(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvpsim:", err)
		return 2
	}
	p, res := verify.Binary(data, verify.Options{})
	for _, d := range res.Diags {
		fmt.Println(d)
	}
	if !res.OK() {
		fmt.Printf("%s: REJECTED (%d error finding(s))\n", path, len(res.Errors()))
		return 2
	}
	fmt.Printf("%s: OK — %s, %d instructions verified in %d memory round(s)\n",
		path, p.Name, len(p.Code), res.MemIters)
	return 0
}

// runLoad ingests a TVPB container through the verifier gate and, when
// admitted, simulates it with the retire cross-checker forced on. The
// functional architectural hash over the simulated instruction window
// is printed so two hosts running the same binary can diff one line.
func runLoad(path string, mode tvp.VPMode, spsr bool, warm, insts uint64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvpsim:", err)
		return 2
	}
	p, res, err := workload.FromEncoded(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvpsim:", err)
		for _, d := range res.Errors() {
			fmt.Fprintln(os.Stderr, d)
		}
		return 2
	}
	for _, d := range res.Diags {
		fmt.Fprintln(os.Stderr, d) // surviving Warn/Info lint findings
	}
	// Ingested binaries always run against the shadow-emulator oracle:
	// the verifier proves memory safety and termination, the oracle
	// proves the timing model retires the same architectural state.
	r, err := tvp.Run(tvp.Options{Program: p, VP: mode, SpSR: spsr,
		Warmup: warm, MaxInsts: insts, CrossCheck: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvpsim:", err)
		return 1
	}
	e := emu.New(p)
	e.Run(warm+insts, nil)
	printHeader()
	printRow(p.Name, &r.Stats)
	fmt.Printf("archhash %#016x over %d functionally executed instructions\n",
		e.ArchHash(), e.Executed())
	return 0
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload name (see -list)")
		all     = flag.Bool("all", false, "run the full suite")
		list    = flag.Bool("list", false, "list workload names and exit")
		vpFlag  = flag.String("vp", "off", "value prediction flavor: off|mvp|tvp|gvp")
		spsr    = flag.Bool("spsr", false, "enable speculative strength reduction")
		warm    = flag.Uint64("warmup", 50_000, "warmup instructions")
		insts   = flag.Uint64("insts", 300_000, "measured instructions")
		compare = flag.Bool("compare", false, "run baseline+MVP+TVP+GVP and print speedups")
		cpistk  = flag.Bool("cpistack", false, "print the top-down CPI-stack bucket breakdown (% of commit slots)")
		ptrace  = flag.Int("pipetrace", 0, "print an O3-pipeview-style trace of the first N committed µops")
		jsonOut = flag.Bool("json", false, "emit one machine-readable obs.RunRecord per workload as NDJSON on stdout")
		konata  = flag.String("konata", "", "write a Kanata (Konata viewer) pipeline trace to this file (single workload)")
		intervl = flag.Uint64("interval", obs.DefaultInterval, "telemetry sampling interval in committed instructions (-json/-konata)")
		topk    = flag.Int("topk", obs.DefaultTopK, "entries per per-PC attribution table in -json records")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = flag.String("memprofile", "", "write a heap profile to this file on exit")
		xcheck  = flag.Bool("crosscheck", false, "arm the shadow-emulator retire checker (gem5-style differential validation; panics on the first divergence)")
		load    = flag.String("load", "", "ingest a TVPB-encoded binary through the static verifier and simulate it (crosscheck forced on)")
		verifyP = flag.String("verify", "", "statically verify a TVPB-encoded binary and exit (no simulation)")
	)
	flag.Parse()

	// Exit via this first-registered defer so the profile-writing defers
	// below still run before the process terminates on failure.
	exitCode := 0
	defer func() {
		if exitCode != 0 {
			os.Exit(exitCode)
		}
	}()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tvpsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tvpsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tvpsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tvpsim:", err)
			}
		}()
	}

	if *compare {
		if *jsonOut || *konata != "" {
			fmt.Fprintln(os.Stderr, "tvpsim: -json/-konata cannot be combined with -compare")
			os.Exit(2)
		}
		names := tvp.Benchmarks()
		if !*all && *wl != "" {
			names = []string{*wl}
		}
		if runCompare(names, *spsr, *warm, *insts, *xcheck) > 0 {
			exitCode = 1
		}
		return
	}

	if *list {
		for _, n := range tvp.Benchmarks() {
			fmt.Println(n)
		}
		return
	}
	if *verifyP != "" {
		exitCode = runVerifyOnly(*verifyP)
		return
	}
	mode, err := config.ParseVPMode(*vpFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvpsim:", err)
		os.Exit(2)
	}
	if *load != "" {
		exitCode = runLoad(*load, mode, *spsr, *warm, *insts)
		return
	}

	names := []string{*wl}
	if *all {
		names = tvp.Benchmarks()
	} else if *wl == "" {
		fmt.Fprintln(os.Stderr, "tvpsim: need -workload or -all (or -list)")
		os.Exit(2)
	}

	if *ptrace > 0 {
		if len(names) != 1 {
			fmt.Fprintln(os.Stderr, "tvpsim: -pipetrace needs a single -workload")
			os.Exit(2)
		}
		if err := runPipetrace(names[0], mode, *spsr, *ptrace); err != nil {
			fmt.Fprintln(os.Stderr, "tvpsim:", err)
			exitCode = 2
		}
		return
	}

	if *cpistk && (*jsonOut || *konata != "") {
		fmt.Fprintln(os.Stderr, "tvpsim: -json/-konata cannot be combined with -cpistack")
		os.Exit(2)
	}
	if *jsonOut || *konata != "" {
		if *konata != "" && len(names) != 1 {
			fmt.Fprintln(os.Stderr, "tvpsim: -konata needs a single -workload")
			os.Exit(2)
		}
		if runInstrumented(names, mode, *spsr, *warm, *insts, *intervl, *topk, *jsonOut, *konata, *xcheck) > 0 {
			exitCode = 1
		}
		return
	}

	opts := make([]tvp.Options, len(names))
	for i, n := range names {
		opts[i] = tvp.Options{Workload: n, VP: mode, SpSR: *spsr, Warmup: *warm, MaxInsts: *insts, CrossCheck: *xcheck}
	}
	results, errs := tvp.RunMany(opts)

	if *cpistk {
		printCPIHeader()
	} else {
		printHeader()
	}
	for i, r := range results {
		if errs[i] != nil {
			fmt.Printf("%-22s error: %v\n", names[i], errs[i])
			exitCode = 1
			continue
		}
		if *cpistk {
			printCPIRow(names[i], &r)
		} else {
			printRow(names[i], &r.Stats)
		}
	}
}

func printHeader() {
	fmt.Printf("%-22s %8s %8s %7s %7s %7s %7s %8s %8s\n",
		"workload", "IPC", "uops/in", "MPKI", "L1DMPKI", "VPcov%", "VPacc%", "elim%", "spsr%")
}

// printCPIHeader and printCPIRow render the top-down CPI stack: the
// percent of post-warmup commit slots per bucket (each row sums to 100%
// — the accounting is an exact decomposition of cycles × commit width).
func printCPIHeader() {
	fmt.Printf("%-22s %8s", "workload", "IPC")
	for _, b := range (&stats.CPIStack{}).Buckets() {
		fmt.Printf(" %8s", b.Name)
	}
	fmt.Println()
}

func printCPIRow(name string, r *tvp.Result) {
	fmt.Printf("%-22s %8.3f", name, r.Stats.IPC())
	total := float64(r.CPI.Total())
	for _, b := range r.CPI.Buckets() {
		p := 0.0
		if total > 0 {
			p = 100 * float64(b.Slots) / total
		}
		fmt.Printf(" %8.3f", p)
	}
	fmt.Println()
}

func printRow(name string, st *tvp.Stats) {
	elim := st.ElimFraction(st.ZeroIdiomElim+st.OneIdiomElim+st.MoveElim+st.NineBitElim) * 100
	fmt.Printf("%-22s %8.3f %8.3f %7.2f %7.2f %7.2f %7.3f %8.3f %8.3f\n",
		name, st.IPC(), st.UopsPerInst(), st.BranchMPKI(), st.L1DMPKI(),
		100*st.VPCoverage(), 100*st.VPAccuracy(), elim, 100*st.ElimFraction(st.SpSRElim))
}
