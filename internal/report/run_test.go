package report

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/stats"
)

// panicProbe is a telemetry probe whose first Sample panics with v.
type panicProbe struct{ v any }

func (p panicProbe) SampleEvery() uint64               { return 0 }
func (p panicProbe) Sample(uint64, uint64, *stats.Sim) { panic(p.v) }
func (panicProbe) VPFlush(uint64, *isa.Inst)           {}
func (panicProbe) BranchMispredict(uint64, *isa.Inst)  {}
func (panicProbe) L1DMiss(uint64, *isa.Inst)           {}

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
