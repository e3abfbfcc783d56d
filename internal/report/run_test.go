package report

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/stats"
)

// panicProbe is a telemetry probe whose first Sample panics with v.
type panicProbe struct{ v any }

func (p panicProbe) SampleEvery() uint64                     { return 0 }
func (p panicProbe) Sample(uint64, uint64, *stats.Sim)       { panic(p.v) }
func (panicProbe) VPFlush(uint64, *isa.Inst)                 {}
func (panicProbe) BranchMispredict(uint64, *isa.Inst)        {}
func (panicProbe) L1DMiss(uint64, *isa.Inst)                 {}
func (panicProbe) CPISample(uint64, uint64, *stats.CPIStack) {}
func (panicProbe) CommitStall(uint64, *isa.Inst, uint64)     {}

// TestExecuteRecoversPanic: a simulator panic inside a pool job comes
// back from Execute as an error wrapping the panic value (so errors.As
// still finds a *pipeline.Divergence), and the pool's single worker
// survives to run the next job. That includes a panic on the core's
// run-ahead producer goroutine, which the core re-raises on its own.
func TestExecuteRecoversPanic(t *testing.T) {
	pool := NewPool(1, 0)
	defer pool.Close()
	p := Point{Workload: "648_exchange2_s", Cfg: config.Default(), Warmup: 1000, Insts: 5000}
	runPoint := func(p Point, a Attach) (r Result, err error) {
		done := make(chan struct{})
		if serr := pool.Submit(context.Background(), func() {
			defer close(done)
			r, err = Execute(context.Background(), p, a)
		}); serr != nil {
			t.Fatal(serr)
		}
		<-done
		return r, err
	}
	run := func(a Attach) (Result, error) { return runPoint(p, a) }

	div := &pipeline.Divergence{Field: "x1", Want: 1, Got: 2}
	_, err := run(Attach{Probe: panicProbe{div}})
	var got *pipeline.Divergence
	if !errors.As(err, &got) || got != div {
		t.Fatalf("divergence panic: err = %v, want one wrapping the *pipeline.Divergence", err)
	}
	_, err = run(Attach{Probe: panicProbe{"watchdog"}})
	if err == nil || !strings.Contains(err.Error(), "watchdog") || !strings.Contains(err.Error(), p.Workload) {
		t.Fatalf("string panic: err = %v, want it to name the workload and the panic value", err)
	}

	// A program that branches out of its text panics the emulator, which
	// runs on the producer goroutine.
	esc := prog.NewBuilder("escape")
	esc.AddI(isa.X1, isa.X1, 1)
	esc.Emit(isa.Inst{Op: isa.B, Target: 100})
	escaping := p
	escaping.Program = esc.Build()
	_, err = runPoint(escaping, Attach{})
	if err == nil || !strings.Contains(err.Error(), "emu: PC out of text") {
		t.Fatalf("emulator panic: err = %v, want one carrying the emulator's panic value", err)
	}

	r, err := run(Attach{})
	if err != nil || r.Stats.ArchInsts == 0 {
		t.Fatalf("job after the panics: %+v, %v", r.Stats, err)
	}
}

// TestRunAllCountsEachRunOnce: a point requested twice in one sweep is
// simulated once and recalled once, also when the second request joins
// the first while it is still in flight, so the sweep log and its
// progress line count its instructions once.
func TestRunAllCountsEachRunOnce(t *testing.T) {
	ResetRunCache()
	var beat bytes.Buffer
	c := Config{Workers: 2, Obs: obs.NewSweepLog()}
	c.Obs.Progress(&beat, 2)
	p := Point{Workload: "648_exchange2_s", Cfg: config.Default(), Warmup: 1000, Insts: 10000}
	if _, err := c.runAll([]Point{p, p}); err != nil {
		t.Fatal(err)
	}
	sw := c.Obs.Sweep(RunCacheCounters())
	if sw.Runs != 2 || sw.CachedRuns != 1 || sw.SimInsts != 11000 {
		t.Fatalf("runs %d, cached %d, siminsts %d; want 2, 1 and 11000", sw.Runs, sw.CachedRuns, sw.SimInsts)
	}
	c.Obs.Finish()
	if !strings.Contains(beat.String(), "2/2 runs (1 cached)") {
		t.Fatalf("progress line %q, want 2/2 runs with 1 cached", beat.String())
	}
}

// TestRunAllCountsSharedAnswersAsRecalls: silencing windows that share
// one unsilenced base cost one simulation. Whichever call simulates the
// base counts it once, as its own simulation; every other call, the
// base's own included, is a recall, also when it joins the base while it
// is still in flight.
func TestRunAllCountsSharedAnswersAsRecalls(t *testing.T) {
	ResetRunCache()
	var beat bytes.Buffer
	c := Config{Workers: 2, Obs: obs.NewSweepLog()}
	c.Obs.Progress(&beat, 2)
	var pts []Point
	for _, window := range []int{15, 250, 1000} {
		cfg := config.Default().WithVP(config.TVP)
		cfg.VP.SilenceCycles = window
		pts = append(pts, Point{Workload: "648_exchange2_s", Cfg: cfg, Warmup: 1000, Insts: 10000})
	}
	rs, err := c.runAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].Silenced {
		t.Fatal("the base run was silenced: pick a member that is not")
	}
	sw := c.Obs.Sweep(RunCacheCounters())
	if sw.Runs != 3 || sw.CachedRuns != 2 || sw.UniquePoints != 3 || sw.SimInsts != 11000 {
		t.Fatalf("runs %d, cached %d, records %d, siminsts %d; want 3, 2, 3 and 11000",
			sw.Runs, sw.CachedRuns, sw.UniquePoints, sw.SimInsts)
	}
	c.Obs.Finish()
	if !strings.Contains(beat.String(), "3/3 runs (2 cached)") {
		t.Fatalf("progress line %q, want 3/3 runs with 2 cached", beat.String())
	}
}

// TestRunAllRecordsInPlanOrder: a two-worker sweep numbers its records
// in the order it plans its points, which is the order a one-worker
// sweep finishes them, although a slow first point finishes last.
func TestRunAllRecordsInPlanOrder(t *testing.T) {
	slow := Point{Workload: "605_mcf_s", Cfg: config.Default(), Warmup: 1000, Insts: 30000}
	pts := []Point{slow}
	for _, w := range []string{"648_exchange2_s", "641_leela_s", "600_perlbench_s_1"} {
		pts = append(pts, Point{Workload: w, Cfg: config.Default(), Warmup: 500, Insts: 1000})
	}
	pts = append(pts, pts[2], slow)
	order := func(workers int) []string {
		c := Config{Workers: workers, NoCache: true, Obs: obs.NewSweepLog()}
		if _, err := c.runAll(pts); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, r := range c.Obs.Records() {
			names = append(names, r.Workload)
		}
		return names
	}
	one, two := order(1), order(2)
	if len(one) != 4 || !slices.Equal(one, two) {
		t.Fatalf("two workers numbered the records\n%v\none worker\n%v", two, one)
	}
}
