package workload

import (
	"repro/internal/emu"
	"repro/internal/prog"
	"repro/internal/simcache"
)

// Workload programs are deterministic per name and immutable once built
// (the emulator copies data segments into its own memory and nothing
// mutates Code), so one built program can back any number of concurrent
// simulations. Building is not free — the suite's generators emit tens of
// thousands of instructions and initialize multi-megabyte arenas — and
// the experiment harness builds the same 28 programs hundreds of times
// across E1–E14, so the programs are memoized process-wide.
var programs = simcache.New[string, *prog.Program]()

// Program returns the named workload's built program, building it at most
// once per process. Concurrent callers share one build.
func Program(name string) (*prog.Program, error) {
	return programs.Do(name, func() (*prog.Program, error) {
		spec, err := Get(name)
		if err != nil {
			return nil, err
		}
		return spec.Build(), nil
	})
}

// Checkpoint returns an architectural-state snapshot of the named
// workload after skip functionally executed instructions. Each call
// executes the skip afresh; the snapshot is immutable and safe to
// Restore concurrently. Its one caller is cmd/tvpbench, which prices a
// functional warmup against the timed one (workload.fastwarmup_gain_x);
// every simulation a user runs warms up timed, through report.Execute.
func Checkpoint(name string, skip uint64) (*emu.Snapshot, error) {
	p, err := Program(name)
	if err != nil {
		return nil, err
	}
	e := emu.New(p)
	if skip > 0 { // emu.Run treats max <= 0 as "run to HALT"
		e.Run(skip, nil)
	}
	return e.Snapshot(), nil
}
