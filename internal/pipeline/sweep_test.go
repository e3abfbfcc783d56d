package pipeline

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestBatchedSweepMatchesSerial pins the property a report sweep
// (report.runAll) is built on: a batch of timing configurations over one
// workload may run concurrently over one shared program image — the
// process-wide workload.Program, exactly the sharing report.Execute
// uses — and each produces exactly what the same configuration produces
// alone over a freshly built program. The full stats.Sim block, run
// shape and CPI stack must be bit-identical across the workload suite,
// the skipConfigs machine variants (CrossCheck armed, so the shadow
// oracle runs on the batched side too) and both cycle-skip settings.
// Under -race this also proves the concurrent cores share no mutable
// state through the program.
func TestBatchedSweepMatchesSerial(t *testing.T) {
	modes := []struct {
		name    string
		disable bool
	}{{"skip", false}, {"tick", true}}
	for _, name := range workload.Names() {
		spec, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := workload.Program(name)
		if err != nil {
			t.Fatal(err)
		}
		type point struct {
			label string
			cfg   *config.Machine
		}
		var pts []point
		for cfgName, cfg := range skipConfigs() {
			for _, mode := range modes {
				m := cfg.Clone()
				m.DisableCycleSkip = mode.disable
				pts = append(pts, point{name + "/" + cfgName + "/" + mode.name, m})
			}
		}

		// The batch: every point at once over the shared program, at most
		// GOMAXPROCS in flight, like the sweep worker pool.
		batched := make([]Result, len(pts))
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for i, pt := range pts {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, cfg *config.Machine) {
				defer func() { <-sem; wg.Done() }()
				c := New(cfg, shared)
				c.EnableCPIStack()
				batched[i] = c.Run(1000, 20000)
			}(i, pt.cfg)
		}
		wg.Wait()

		for i, pt := range pts {
			t.Run(pt.label, func(t *testing.T) {
				serial := New(pt.cfg, spec.Build())
				serial.EnableCPIStack()
				rs := serial.Run(1000, 20000)
				rb := batched[i]

				if rs.Cycles != rb.Cycles || rs.Committed != rb.Committed || rs.Halted != rb.Halted {
					t.Fatalf("run shape diverged: serial (cycles=%d committed=%d halted=%v) vs batched (%d, %d, %v)",
						rs.Cycles, rs.Committed, rs.Halted, rb.Cycles, rb.Committed, rb.Halted)
				}
				if rs.Stats != rb.Stats {
					t.Errorf("stats diverged:\n serial: %+v\nbatched: %+v", rs.Stats, rb.Stats)
				}
				if rs.CPI != rb.CPI {
					t.Errorf("CPI stack diverged:\n serial: %+v\nbatched: %+v", rs.CPI, rb.CPI)
				}
			})
		}
	}
}
