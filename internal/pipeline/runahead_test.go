package pipeline

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/workload"
)

// The TestRunAhead* tests cover the run-ahead producer goroutine; make
// race runs them under the race detector.

// escapingProgram runs n ADDs and then branches past the end of its
// text, so the emulator panics on the instruction after the branch.
func escapingProgram(n int) *prog.Program {
	b := prog.NewBuilder("escape")
	for i := 0; i < n; i++ {
		b.AddI(isa.X1, isa.X1, 1)
	}
	b.Emit(isa.Inst{Op: isa.B, Target: n + 100})
	return b.Build()
}

// recovered runs f and returns the value it panicked with, if any.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// waitGoroutines waits up to about five seconds for the goroutine count
// to fall back to want. Run has joined the producer when it returns, but
// the goroutine may still be unwinding its final frame for a moment
// after that.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > want; i++ {
		if i == 5000 {
			t.Fatalf("%d goroutines after Run returned, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunAheadProducerPanic: an emulator panic on the producer goroutine
// is re-raised on Run's goroutine with the original value, after the
// core has fetched every instruction before the faulting one.
func TestRunAheadProducerPanic(t *testing.T) {
	const n = 1000 // several chunks before the fault
	want := recovered(func() { emu.New(escapingProgram(n)).Run(0, nil) })
	if want == nil {
		t.Fatal("the escaping program does not panic the emulator")
	}
	c := New(config.Default(), escapingProgram(n))
	got := recovered(func() { c.Run(0, 1<<62) })
	if got != want {
		t.Fatalf("Run panicked with %v, want the emulator's %v", got, want)
	}
	if c.ra.cursor != n+1 {
		t.Fatalf("fetch stopped at seq %d, want the faulting seq %d", c.ra.cursor, n+1)
	}
}

// TestRunAheadJoinsProducer: once Run returns, normally or not, the
// goroutine count is back where it started.
func TestRunAheadJoinsProducer(t *testing.T) {
	divergence := func() {
		cfg := config.Default().WithVP(config.TVP)
		cfg.CrossCheck = true
		cfg.VP.FPCInvProb = 1
		c := New(cfg, vpBugProgram())
		c.injectVPBug(1)
		if _, ok := recovered(func() { c.Run(0, 1<<20) }).(*Divergence); !ok {
			t.Error("the injected VP bug did not end the run with a divergence")
		}
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"halt", func() {
			if !New(config.Default(), loopProgram(200)).Run(0, 1<<62).Halted {
				t.Error("run did not halt")
			}
		}},
		{"budget", func() { New(config.Default(), loopProgram(1<<30)).Run(1000, 5000) }},
		{"stopped", func() {
			c := New(config.Default(), loopProgram(1<<30))
			c.SetStopCheck(func() bool { return true })
			if !c.Run(0, 1<<62).Stopped {
				t.Error("run was not stopped")
			}
		}},
		{"divergence", divergence},
		{"producer-panic", func() {
			if recovered(func() { New(config.Default(), escapingProgram(10)).Run(0, 1<<62) }) == nil {
				t.Error("the producer's panic was not re-raised")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tc.run()
			waitGoroutines(t, before)
		})
	}
}

// TestRunAheadResumesAcrossRuns: a second Run restarts the producer
// where the first left off, so a run split in two matches one run.
func TestRunAheadResumesAcrossRuns(t *testing.T) {
	cfg := config.Default().WithVP(config.TVP)
	whole := New(cfg, phaseChangeProgram()).Run(0, 30000)
	c := New(cfg, phaseChangeProgram())
	c.Run(0, 7000)
	split := c.Run(0, 30000)
	if split.Stats != whole.Stats || split.Cycles != whole.Cycles || split.Committed != whole.Committed {
		t.Fatalf("split run (cycles %d, committed %d) differs from whole run (cycles %d, committed %d)",
			split.Cycles, split.Committed, whole.Cycles, whole.Committed)
	}
}

// TestRunAheadConcurrentCores: cores over one shared program, each with
// its own producer, run concurrently and match serial runs bit for bit.
func TestRunAheadConcurrentCores(t *testing.T) {
	shared, err := workload.Program("602_gcc_s_2")
	if err != nil {
		t.Fatal(err)
	}
	spsr := config.Default().WithVP(config.TVP)
	spsr.SpSR = true
	cfgs := []*config.Machine{
		config.Default(),
		config.Default().WithVP(config.MVP),
		spsr,
		config.Default().WithVP(config.GVP),
	}
	serial := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		serial[i] = New(cfg, shared).Run(1000, 10000)
	}
	concurrent := make([]Result, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = New(cfg, shared).Run(1000, 10000)
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if serial[i] != concurrent[i] {
			t.Errorf("config %d: concurrent run differs from the serial run:\n serial: %+v\n concurrent: %+v",
				i, serial[i], concurrent[i])
		}
	}
}

// startedRing returns the run-ahead ring of a core over p with its
// producer running; the caller stops it.
func startedRing(p *prog.Program) *runAhead {
	r := &New(config.Default(), p).ra
	r.start()
	return r
}

// next delivers the record at the cursor and advances past it.
func (r *runAhead) next() *raSlot {
	s := r.peek()
	if s != nil {
		r.advance()
	}
	return s
}

// TestRunAheadRewind: a rewind redelivers the same records in order, and
// the stream ends after HALT.
func TestRunAheadRewind(t *testing.T) {
	b := prog.NewBuilder("s")
	for i := 0; i < 50; i++ {
		b.AddI(isa.X1, isa.X1, 1)
	}
	b.Halt()
	r := startedRing(b.Build())
	defer r.stop()
	for i := 0; i < 20; i++ {
		if got := r.next().d.Seq; got != uint64(i) {
			t.Fatalf("record %d has seq %d", i, got)
		}
	}
	r.rewind(5)
	for i := 5; i < 20; i++ {
		if got := r.next().d; got.Seq != uint64(i) || got.Result != uint64(i+1) {
			t.Fatalf("replayed seq %d result %d, want seq %d result %d", got.Seq, got.Result, i, i+1)
		}
	}
	n := 20
	for r.next() != nil {
		n++
	}
	if n != 51 {
		t.Fatalf("stream delivered %d records, want 50 ADDs and HALT", n)
	}
}

// TestRunAheadRewindPanics: rewinding ahead of the cursor, or behind the
// oldest slot the core still holds, panics.
func TestRunAheadRewindPanics(t *testing.T) {
	b := prog.NewBuilder("s")
	for i := 0; i < 3*raChunk; i++ {
		b.Nop()
	}
	b.Halt()
	r := startedRing(b.Build())
	defer r.stop()
	for i := 0; i < raChunk+10; i++ {
		r.next()
	}
	mustPanic := func(seq uint64) {
		t.Helper()
		if recovered(func() { r.rewind(seq) }) == nil {
			t.Fatalf("rewind to %d (cursor %d, oldest held %d) did not panic", seq, r.cursor, r.held)
		}
	}
	mustPanic(r.cursor + 1)
	r.rewind(2) // the first chunk is still held
	for i := 2; i < raChunk+10; i++ {
		r.next()
	}
	for seq := uint64(0); seq < raChunk; seq++ {
		r.retire(seq) // commits the first chunk, handing it back
	}
	mustPanic(2)
	mustPanic(raChunk - 1)
	r.rewind(raChunk)
	if got := r.next().d.Seq; got != raChunk {
		t.Fatalf("after rewind got seq %d, want %d", got, raChunk)
	}
}
