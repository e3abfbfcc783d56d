package main

import (
	"fmt"
	"time"

	tvp "repro"
	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// simOp is one simulated point, run the way tvp.Run and tvpsim run it:
// workload.Program, then pipeline.New, then Core.Run.
type simOp struct {
	pair int
	ms   float64 // the whole op
	run  pipeRun
	st   stats.Sim
}

func runSimOp(p point, cfg *config.Machine, tr *tracer, req int64) (simOp, error) {
	start := time.Now()
	op := tr.begin(rootName, 0, req)
	sp := tr.begin("workload.program", op.ID, req)
	prg, err := workload.Program(p.Workload)
	tr.end(sp)
	if err != nil {
		return simOp{}, err
	}
	built := time.Now()
	sp = tr.begin("pipeline.new", op.ID, req)
	c := pipeline.New(cfg, prg)
	newMS := sinceMS(built)
	tr.end(sp)
	mid := time.Now()
	sp = tr.begin("pipeline.run", op.ID, req)
	r := c.Run(p.Warmup, p.Insts)
	tr.end(sp)
	runMS := sinceMS(mid)
	tr.end(op)
	return simOp{
		ms:  sinceMS(start),
		run: pipeRun{newMS: newMS, runMS: runMS, insts: r.Committed, cycles: r.Cycles, skipped: c.SkippedCycles()},
		st:  r.Stats,
	}, nil
}

// simRound is one pass over every pair.
type simRound struct {
	ms    float64
	insts uint64
}

// simPhase runs whole rounds, each in its seeded order, for length.
func (b *bench) simPhase(pairs []point, cfgs []*config.Machine, length time.Duration) ([]simOp, []simRound, error) {
	var ops []simOp
	var rounds []simRound
	var last time.Duration
	start := time.Now()
	for round := 0; keepRunning(start, round, last, length); round++ {
		rs := time.Now()
		var insts uint64
		for _, i := range roundOrder(b.opt.seed, round, len(pairs)) {
			op, err := runSimOp(pairs[i], cfgs[i], b.tr, int64(len(ops)+1))
			if err != nil {
				return nil, nil, err
			}
			op.pair = i
			ops = append(ops, op)
			insts += op.run.insts
		}
		last = time.Since(rs)
		rounds = append(rounds, simRound{float64(last.Nanoseconds()) / 1e6, insts})
	}
	return ops, rounds, nil
}

// runSim drives sim-highipc and sim-lowipc: a closed loop, one caller,
// over every (program, VP flavor, SpSR) pair of the workload.
func runSim(b *bench, programs []string) error {
	pairs := simPairs(programs, b.opt.seed, b.opt.scale)
	cfgs := make([]*config.Machine, len(pairs))
	var buildMS []float64
	err := b.medianSetup(func() error {
		start := time.Now()
		if err := buildPrograms(programs); err != nil {
			return err
		}
		buildMS = append(buildMS, sinceMS(start))
		for i, p := range pairs {
			cfgs[i] = p.config()
			if err := cfgs[i].Validate(); err != nil {
				return fmt.Errorf("%s: %w", p.id(), err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Warm-up: one untimed op per program.
	for i := 0; i < len(pairs); i += len(pairs) / len(programs) {
		if _, err := runSimOp(pairs[i], cfgs[i], nil, 0); err != nil {
			return err
		}
	}

	before := readRuntime()
	ops, rounds, err := b.simPhase(pairs, cfgs, b.phaseSeconds())
	if err != nil {
		return err
	}
	after := readRuntime()
	opMS, opPair := make([]float64, len(ops)), make([]float64, len(ops))
	for i, op := range ops {
		opMS[i], opPair[i] = op.ms, float64(op.pair)
	}
	roundMS, roundMIPS := make([]float64, len(rounds)), make([]float64, len(rounds))
	for i, r := range rounds {
		roundMS[i] = r.ms
		roundMIPS[i] = float64(r.insts) / r.ms / 1e3
	}
	best, bestInsts := bestOfPairs(ops, len(pairs))
	b.out.addE2E("op_p50_ms", median(best), "ms")
	b.out.addE2E("sim_mips", bestInsts/sum(best)/1e3, "MIPS")
	b.out.addTail("op_p95_ms", opMS, 95, "ms")
	b.out.addInfo("ops", float64(len(ops)), "count")
	b.out.addInfo("rounds", float64(len(rounds)), "count")
	b.out.samples["op_ms"] = opMS
	b.out.samples["op_pair"] = opPair
	b.out.samples["op_best_ms"] = best
	b.out.samples["round_ms"] = roundMS
	b.out.samples["round_mips"] = roundMIPS

	first := b.checkSimOps(pairs, ops, nil)
	if err := b.checkSimSample(pairs, first); err != nil {
		return err
	}
	var simCycles uint64
	for i, p := range pairs {
		b.out.digests[p.id()] = digestJSON(first[i])
		simCycles += first[i].Cycles
	}
	if !b.opt.traced {
		return nil
	}

	b.tr = newTracer()
	tops, _, err := b.simPhase(pairs, cfgs, b.phaseSeconds())
	if err != nil {
		return err
	}
	b.checkSimOps(pairs, tops, first)
	b.out.addRuntime(before, after, len(ops))
	b.out.addLayer("workload.program_ms", median(buildMS), "ms")
	runs := make([]pipeRun, len(tops))
	topMS := make([]float64, len(tops))
	for i, op := range tops {
		runs[i], topMS[i] = op.run, op.ms
	}
	b.out.addPipeline(runs, simCycles)
	b.out.samples["traced_op_ms"] = topMS

	// The emulator's share: one functional run per pair against one op
	// per pair.
	emuMS, err := b.out.emuSide(pairs)
	if err != nil {
		return err
	}
	b.out.addLayer("emu.share", ratio(emuMS, median(topMS)*float64(len(pairs))), "frac")

	order := roundOrder(b.opt.seed, 0, len(pairs))
	firstPts := make([]point, 0, mechanismPoints)
	for _, i := range order[:min(len(order), mechanismPoints)] {
		firstPts = append(firstPts, pairs[i])
	}
	if _, _, err := b.priceMechanisms(firstPts); err != nil {
		return err
	}
	if err := b.out.addEncodeCost(pairs, first); err != nil {
		return err
	}
	b.out.addTraceMetrics(b.tr.snapshot(), median(opMS), median(topMS))
	return nil
}

// bestOfPairs returns each pair's fastest op and the instructions of one
// op per pair. The fastest of a pair's repeats is the one least disturbed
// by other load on the host: on a shared two-vCPU machine it varied about
// half as much between runs as the median op did.
func bestOfPairs(ops []simOp, pairs int) (best []float64, insts float64) {
	best = make([]float64, pairs)
	seen := make([]bool, pairs)
	for _, op := range ops {
		if !seen[op.pair] {
			seen[op.pair] = true
			best[op.pair] = op.ms
			insts += float64(op.run.insts)
		}
		best[op.pair] = min(best[op.pair], op.ms)
	}
	return best, insts
}

// buildPrograms builds each program from its generator, bypassing the
// process-wide memo, as a fresh process must.
func buildPrograms(names []string) error {
	for _, n := range names {
		spec, err := workload.Get(n)
		if err != nil {
			return err
		}
		spec.Build()
	}
	return nil
}

// checkSimOps checks that every op of a pair produced the same
// statistics, and the same as want when given. It returns each pair's
// statistics.
func (b *bench) checkSimOps(pairs []point, ops []simOp, want []stats.Sim) []stats.Sim {
	got := make([]stats.Sim, len(pairs))
	seen := make([]bool, len(pairs))
	for _, op := range ops {
		b.out.attempted++
		ref, ok := got[op.pair], seen[op.pair]
		if want != nil {
			ref, ok = want[op.pair], true
		}
		if ok && op.st != ref {
			b.out.fail("%s: statistics differ between runs of the same point", pairs[op.pair].id())
		}
		if !seen[op.pair] {
			got[op.pair], seen[op.pair] = op.st, true
		}
	}
	return got
}

// checkSimSample re-runs a seeded one-in-eight sample of the pairs through
// tvp.Run, the library entry point, and compares the statistics bit for
// bit.
func (b *bench) checkSimSample(pairs []point, got []stats.Sim) error {
	perm := perm(newRNG(b.opt.seed, "sim-check"), len(pairs))
	for _, i := range perm[:max(1, len(pairs)/8)] {
		p := pairs[i]
		res, err := tvp.Run(tvp.Options{
			Workload: p.Workload, VP: vpModes[p.VP].mode, SpSR: p.SpSR,
			Warmup: p.Warmup, MaxInsts: p.Insts,
		})
		if err != nil {
			return err
		}
		b.out.check(res.Stats == got[i], "%s: tvp.Run statistics differ from the benchmark's run", p.id())
	}
	return nil
}
