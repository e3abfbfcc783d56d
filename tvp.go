// Package tvp is the public API of the reproduction of "Leveraging
// Targeted Value Prediction to Unlock New Hardware Strength Reduction
// Potential" (Arthur Perais, MICRO 2021).
//
// It exposes the simulated machine (an aggressive 8-wide out-of-order
// core per the paper's Table 2), the three value prediction flavors the
// paper studies — Minimal (MVP), Targeted (TVP) and Generic (GVP) — the
// Speculative Strength Reduction (SpSR) rename optimization, and the
// synthetic SPEC CPU2017-speed-like workload suite the evaluation runs on.
//
// Quick start:
//
//	res, err := tvp.Run(tvp.Options{Workload: "602_gcc_s_1", VP: tvp.TVP, SpSR: true})
//	fmt.Printf("IPC %.3f, coverage %.1f%%\n", res.Stats.IPC(), 100*res.Stats.VPCoverage())
//
// See cmd/tvpreport for the harness that regenerates every table and
// figure of the paper, and EXPERIMENTS.md for the measured results.
package tvp

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/config"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workload"
)

// VPMode selects the value prediction flavor.
type VPMode = config.VPMode

// Value prediction flavors (§3, §6.1 of the paper).
const (
	// VPOff disables value prediction (the baseline machine still
	// performs move elimination and 0/1-idiom elimination, §5).
	VPOff = config.VPOff
	// MVP predicts only 0x0 and 0x1 through hardwired physical
	// registers (§3.1). Predictor footprint ≈ 7.9 KB.
	MVP = config.MVP
	// TVP predicts 9-bit signed values through physical register name
	// inlining, and enables 9-bit idiom elimination (§3.2). ≈ 13.9 KB.
	TVP = config.TVP
	// GVP predicts arbitrary 64-bit values (§6.1). ≈ 55.2 KB.
	GVP = config.GVP
)

// Machine is the full machine configuration (paper Table 2 by default).
type Machine = config.Machine

// Stats is the set of counters a run produces.
type Stats = stats.Sim

// CPIStack is a run's top-down commit-slot attribution.
type CPIStack = stats.CPIStack

// DefaultConfig returns the paper's Table 2 machine with value prediction
// off and SpSR off (the evaluation baseline).
func DefaultConfig() *Machine { return config.Default() }

// Options configures a single simulation run.
type Options struct {
	// Workload names a suite entry (see Benchmarks) — required unless
	// Program is set.
	Workload string
	// Program overrides Workload with a custom program.
	Program *prog.Program
	// VP selects the value prediction flavor (default VPOff).
	VP VPMode
	// SpSR enables speculative strength reduction at rename (§4).
	SpSR bool
	// Warmup is the number of instructions committed before statistics
	// collection begins (default 50,000).
	Warmup uint64
	// MaxInsts is the number of post-warmup instructions to simulate
	// (default 300,000).
	MaxInsts uint64
	// Config overrides the base machine configuration (before the VP
	// and SpSR options are applied). Leave nil for Table 2.
	Config *Machine
	// CrossCheck arms the shadow-emulator retire checker
	// (config.Machine.CrossCheck): if retired architectural state ever
	// departs from the functional oracle, Run returns an error wrapping
	// the *pipeline.Divergence (errors.As finds it). Timing and
	// statistics are unaffected.
	CrossCheck bool
}

// Result is the outcome of one run: Stats holds the post-warmup
// counters; CPI is the post-warmup CPI stack, with CPI.Total() ==
// Stats.Cycles × CommitWidth exactly; Cycles, Committed and Skipped
// (cycles absorbed by event-driven skipping) include warmup.
type Result = report.Result

func (o *Options) defaults() {
	if o.Warmup == 0 {
		o.Warmup = 50_000
	}
	if o.MaxInsts == 0 {
		o.MaxInsts = 300_000
	}
}

// Run executes one simulation.
func Run(o Options) (Result, error) {
	o.defaults()
	cfg := o.Config
	if cfg == nil {
		cfg = config.Default()
	}
	cfg = cfg.WithVP(o.VP).WithSpSR(o.SpSR) // clones: the mutation below stays local
	if o.CrossCheck {
		cfg.CrossCheck = true
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, fmt.Errorf("tvp: %w", err)
	}
	p := report.Point{Workload: o.Workload, Program: o.Program, Cfg: cfg, Warmup: o.Warmup, Insts: o.MaxInsts}
	if p.Program != nil && p.Workload == "" {
		p.Workload = p.Program.Name
	}
	return report.Execute(context.Background(), p, report.Attach{})
}

// Benchmarks returns the workload names in the paper's figure order.
func Benchmarks() []string { return workload.Names() }

// RunMany executes the given runs concurrently (bounded by GOMAXPROCS)
// and returns results in input order. The first error aborts nothing —
// failed slots carry their error.
func RunMany(opts []Options) ([]Result, []error) {
	results := make([]Result, len(opts))
	errs := make([]error, len(opts))
	report.Each(runtime.GOMAXPROCS(0), len(opts), func(i int) {
		results[i], errs[i] = Run(opts[i])
	})
	return results, errs
}
