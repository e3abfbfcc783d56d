package main

import (
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Mechanism prices: the cost of arming each optional simulator mechanism,
// measured on a workload's first points. They move no end-to-end metric
// today. They are the numbers needed before making CPI accounting
// unconditional or removing FastWarmup.

// mechanismPoints is how many of a workload's points are priced.
const mechanismPoints = 8

// timedRun builds a core, lets arm attach a mechanism, runs it, and
// returns the run's host cost and statistics.
func timedRun(build func() *pipeline.Core, arm func(*pipeline.Core), warmup, insts uint64) (pipeRun, stats.Sim) {
	start := time.Now()
	c := build()
	if arm != nil {
		arm(c)
	}
	newMS := sinceMS(start)
	mid := time.Now()
	r := c.Run(warmup, insts)
	return pipeRun{newMS: newMS, runMS: sinceMS(mid), insts: r.Committed, cycles: r.Cycles, skipped: c.SkippedCycles()}, r.Stats
}

// priceMechanisms runs each of the first points five ways: plain, with
// CPI accounting, with telemetry attached, without cycle skipping, and
// resumed from a functional warmup checkpoint. The first three
// variants must not change any statistic, which is checked. It returns
// the plain runs and their statistics.
func (b *bench) priceMechanisms(pts []point) ([]pipeRun, []stats.Sim, error) {
	pts = pts[:min(len(pts), mechanismPoints)]
	var cpi, tele, noskip, fast []float64
	var plain []pipeRun
	var sts []stats.Sim
	for _, p := range pts {
		prg, err := workload.Program(p.Workload)
		if err != nil {
			return nil, nil, err
		}
		snap, err := workload.Checkpoint(p.Workload, p.Warmup)
		if err != nil {
			return nil, nil, err
		}
		cfg := p.config()
		noSkipCfg := cfg.Clone()
		noSkipCfg.DisableCycleSkip = true
		live := func() *pipeline.Core { return pipeline.New(cfg, prg) }

		base, want := timedRun(live, nil, p.Warmup, p.Insts)
		plain, sts = append(plain, base), append(sts, want)
		baseMS := base.newMS + base.runMS
		for _, v := range []struct {
			name  string
			build func() *pipeline.Core
			arm   func(*pipeline.Core)
			into  *[]float64
		}{
			{"cpi", live, func(c *pipeline.Core) { c.EnableCPIStack() }, &cpi},
			{"telemetry", live, func(c *pipeline.Core) { c.SetProbe(obs.New(obs.Config{})) }, &tele},
			{"noskip", func() *pipeline.Core { return pipeline.New(noSkipCfg, prg) }, nil, &noskip},
		} {
			r, got := timedRun(v.build, v.arm, p.Warmup, p.Insts)
			*v.into = append(*v.into, (r.newMS+r.runMS)/baseMS)
			b.out.check(got == want, "%s: %s run changed the statistics", p.id(), v.name)
		}
		// Resuming from the checkpoint skips the timed warmup, so its
		// statistics differ by design and are not compared.
		r, _ := timedRun(func() *pipeline.Core { return pipeline.NewFromEmulator(cfg, snap.Restore()) }, nil, 0, p.Insts)
		fast = append(fast, baseMS/(r.newMS+r.runMS))
	}
	b.out.addLayer("pipeline.cpi_cost_pct", 100*(median(cpi)-1), "%")
	b.out.addLayer("obs.telemetry_cost_pct", 100*(median(tele)-1), "%")
	b.out.addLayer("pipeline.noskip_slowdown_x", median(noskip), "x")
	b.out.addLayer("workload.fastwarmup_gain_x", median(fast), "x")
	return plain, sts, nil
}

// pricePoints prices the mechanisms on the first points and reports the
// timing core's cost and the record encoding cost from the plain runs.
// It serves the workloads whose ops run the core out of the benchmark's
// sight, inside the report harness or the daemon.
func (b *bench) pricePoints(pts []point) error {
	plain, sts, err := b.priceMechanisms(pts)
	if err != nil {
		return err
	}
	var cycles uint64
	for _, r := range plain {
		cycles += r.cycles
	}
	b.out.addPipeline(plain, cycles)
	return b.out.addEncodeCost(pts[:len(sts)], sts)
}
