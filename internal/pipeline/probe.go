package pipeline

import (
	"repro/internal/isa"
	"repro/internal/stats"
)

// Probe observes simulation progress and event attribution for the
// telemetry layer (internal/obs). It is the counters-side companion of
// Tracer: a Tracer sees every per-µop pipeline event, a Probe sees
// run-level sampling points and the rare events worth attributing to
// static PCs (value-misprediction flushes, branch mispredictions, L1D
// demand misses).
//
// Every call site is nil-guarded, so a detached probe costs at most one
// predictable branch on the hot path. An attached probe must not change
// simulated timing: probes only read state, and the core never consults
// them for decisions.
type Probe interface {
	// SampleEvery returns the interval-sampling period in committed
	// architectural instructions (0 disables interval sampling).
	SampleEvery() uint64
	// Sample is called with the live counter block (memory-hierarchy
	// counters synced) at the measurement start (the warmup boundary, or
	// run start when warmup is 0), after every SampleEvery committed
	// instructions thereafter, and once more when the run ends.
	// committed and cycle are run-absolute (warmup included). The callee
	// must copy st if it retains it; the block stays owned by the core.
	Sample(committed, cycle uint64, st *stats.Sim)
	// VPFlush attributes one value-misprediction pipeline flush to the
	// mispredicted instruction's static PC.
	VPFlush(pc uint64, in *isa.Inst)
	// BranchMispredict attributes one branch misprediction (conditional
	// direction, return-address or indirect-target) to the branch PC.
	BranchMispredict(pc uint64, in *isa.Inst)
	// L1DMiss attributes one L1D demand miss to the accessing load or
	// store PC.
	L1DMiss(pc uint64, in *isa.Inst)
	// CPISample delivers the live post-warmup CPI stack (cpistack.go),
	// immediately before every Sample call (same cadence, same
	// committed/cycle coordinates). The callee must copy cs if it
	// retains it.
	CPISample(committed, cycle uint64, cs *stats.CPIStack)
	// CommitStall attributes a cycle's idle commit slots (or a skipped
	// span's slots) to the instruction blocking the ROB head. Only
	// called when the ROB is non-empty; empty-ROB cycles have no
	// blocking instruction to charge.
	CommitStall(pc uint64, in *isa.Inst, slots uint64)
}

// SetProbe attaches a telemetry probe to the core (nil detaches). Probing
// has no effect on simulated timing. Attaching a probe arms CPI-stack
// accounting. Attribution events (hooks) stay disarmed until the warmup
// boundary so the tables line up with the post-warmup counter totals;
// interval sampling is driven by Run.
func (c *Core) SetProbe(p Probe) {
	c.probe = p
	if p == nil {
		c.hooks = nil
	}
}

// l1dAccess performs one demand L1D access, attributing a miss to the
// µop's PC when the probe's event hooks are armed. The hook-less path is
// kept free of counter reads.
func (c *Core) l1dAccess(u *uop, cycle uint64, write bool) uint64 {
	if c.hooks == nil {
		return c.mem.L1D.Access(u.ea, cycle, write, false)
	}
	m0 := c.mem.L1D.Misses
	ready := c.mem.L1D.Access(u.ea, cycle, write, false)
	if c.mem.L1D.Misses != m0 {
		c.hooks.L1DMiss(c.crack[u.sIdx].pc, c.instOf(u))
	}
	return ready
}
