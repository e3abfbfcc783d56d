package report

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/simcache"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Point names one timing-simulation point. It is the only run
// description: the figures, tvp.Run, tvpsim and the tvpd daemon
// (internal/serve, whose two-tier result store is keyed by Point.Key)
// all build Points and hand them to Execute.
type Point struct {
	Workload string
	// Program, when non-nil, is simulated instead of the suite member
	// (tvp.Options.Program, tvpsim -load); Workload then only names it.
	// Key does not cover it, so such points are never cached.
	Program *prog.Program
	// Cfg is the machine configuration; it must be validated by the
	// caller (config.Machine.Validate).
	Cfg    *config.Machine
	Warmup uint64
	Insts  uint64
}

// ModelVersion identifies the timing model. Point.Key puts it in every
// run key, so a result stored under another model version reads as a
// miss, never as a stale answer. Bump it in the change that moves any
// simulated result: TestModelGrid (package tvp, the module root) fails
// until that change does so and regenerates testdata/model_grid.json.
const ModelVersion = 1

// Key returns the canonical content-addressed cache/store key of the
// point. Two points with equal keys produce bit-identical results.
func (p Point) Key() simcache.RunKey {
	return simcache.RunKey{
		Model:    ModelVersion,
		Workload: p.Workload,
		ConfigFP: p.Cfg.Fingerprint(),
		Warmup:   p.Warmup,
		Insts:    p.Insts,
	}
}

// Attach carries a run's optional inputs beyond the Point. None of them
// changes the simulated results.
type Attach struct {
	// Probe receives telemetry samples and attribution events (obs).
	Probe pipeline.Probe
	// Tracer receives every per-µop pipeline event (Konata, pipeview).
	Tracer pipeline.Tracer
}

// Result is the outcome of one run. Every run carries its CPI stack:
// commit-slot accounting is always armed.
type Result struct {
	// Stats holds the post-warmup counters.
	Stats stats.Sim
	// CPI is the post-warmup commit-slot attribution; CPI.Total() ==
	// Stats.Cycles × CommitWidth exactly.
	CPI stats.CPIStack
	// Cycles and Committed include warmup.
	Cycles, Committed uint64
	// Skipped counts the cycles absorbed by event-driven skipping.
	Skipped uint64
	// Silenced reports that the value predictor was silenced at least
	// once, warmup included. An unsilenced result answers every
	// silencing setting of its point (runOne).
	Silenced bool
}

// Execute runs one point, uncached and unpooled: it is the one place
// that builds and drives a pipeline.Core. It honors ctx: cancellation
// and deadlines are polled from inside the cycle loop
// (pipeline.Core.SetStopCheck), so an abandoned request stops burning
// CPU within microseconds instead of completing a multi-second run; the
// returned error then wraps ctx.Err(), which the simcache layer treats
// as transient and refuses to memoize. A simulator panic (the deadlock
// watchdog, a broken invariant, a CrossCheck *pipeline.Divergence) comes
// back as an error wrapping the panic value, so one bad run cannot take
// down a pool worker or the process that owns it.
func Execute(ctx context.Context, p Point, a Attach) (res Result, err error) {
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("report: simulate %s: %w", p.Workload, err)
	}
	defer func() {
		if v := recover(); v != nil {
			res = Result{}
			if e, ok := v.(error); ok {
				err = fmt.Errorf("report: simulate %s: panic: %w", p.Workload, e)
			} else {
				err = fmt.Errorf("report: simulate %s: panic: %v", p.Workload, v)
			}
		}
	}()
	prg := p.Program
	if prg == nil {
		var err error
		if prg, err = workload.Program(p.Workload); err != nil {
			return Result{}, err
		}
	}
	core := pipeline.New(p.Cfg, prg)
	core.EnableCPIStack()
	if a.Probe != nil {
		core.SetProbe(a.Probe)
	}
	if a.Tracer != nil {
		core.SetTracer(a.Tracer)
	}
	if ctx.Done() != nil {
		core.SetStopCheck(func() bool {
			select {
			case <-ctx.Done():
				return true
			default:
				return false
			}
		})
	}
	r := core.Run(p.Warmup, p.Insts)
	if r.Stopped {
		return Result{}, fmt.Errorf("report: simulate %s: %w", p.Workload, ctx.Err())
	}
	return Result{Stats: r.Stats, CPI: r.CPI, Cycles: r.Cycles, Committed: r.Committed, Skipped: core.SkippedCycles(), Silenced: r.Silenced}, nil
}

// Simulate is Execute without attachments, returning only the counters
// (the tvpd daemon's stats-only records).
func Simulate(ctx context.Context, p Point) (stats.Sim, error) {
	r, err := Execute(ctx, p, Attach{})
	return r.Stats, err
}
