package report

import (
	"repro/internal/config"
	"repro/internal/stats"
)

// CPI-stack experiment: "where do the cycles go". The report renders the
// top-down bucket breakdown of every workload under the baseline and
// under TVP+SpSR side by side — the cycle-level complement of the
// Fig. 3/Fig. 5 speedup tables (the speedup shows THAT the cycles moved;
// the stack shows WHICH buckets they moved between). Every run carries
// its stack (Execute always arms the accounting), so these are the
// same cached runs Fig. 2 and Fig. 4b read.

// CPIRow is one workload's stacks under base and TVP+SpSR.
type CPIRow struct {
	Workload string
	Base     stats.CPIStack
	TVP      stats.CPIStack
}

// CPIStacks runs the suite under base and TVP+SpSR with commit-slot
// accounting and returns the per-workload bucket stacks. Each stack
// decomposes exactly: Total() == post-warmup cycles × CommitWidth.
func CPIStacks(c Config) ([]CPIRow, error) {
	names := c.names()
	rs, err := c.sweep(names, config.Default(), config.Default().WithVP(config.TVP).WithSpSR(true))
	if err != nil {
		return nil, err
	}
	rows := make([]CPIRow, len(names))
	for i, n := range names {
		rows[i] = CPIRow{Workload: n, Base: rs[i*2].CPI, TVP: rs[i*2+1].CPI}
	}
	return rows, nil
}
