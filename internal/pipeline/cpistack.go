package pipeline

// Top-down CPI-stack accounting (DESIGN.md §8).
//
// Every post-warmup cycle offers CommitWidth commit slots. Slots that
// retire a µop are Retiring (or RetiredSpSR for SpSR-eliminated µops —
// the strength-reduction credit); the remaining idle slots of the cycle
// are attributed to one bucket by classifyIdle, which asks the same
// question as a hardware top-down counter: what is blocking the ROB head
// right now?
//
// The invariant is exact by construction: each executed cycle contributes
// retired + spsr + idle == CommitWidth slots, each skipped span
// contributes delta × CommitWidth slots, and c.st.Cycles advances by 1
// and delta at exactly those points — so Σ buckets == Cycles × CommitWidth
// always, enforced across the suite by TestCPIStackExactDecomposition.
//
// Composition with cycle skipping: a span skipped by trySkip is credited
// delta-at-jump with the classification of its first cycle. That is
// bit-identical to classifying every cycle of the span one by one
// because every classifier input is frozen while the span is idle:
//   - robCnt, the head µop, its state and isLoad/isStore only change in
//     commit/rename/flush, which are provably inactive;
//   - waitBranchSeq resolves only in complete/applyReduction (inactive),
//     haltSeen is set by fetch (idle) and cleared by flush (inactive);
//   - redirectCause is set by flushes and cleared by rename (inactive);
//   - fetchStallUntil > cycle holds across the span whenever it held at
//     the first cycle: trySkip's wake bound includes fetchStallUntil
//     under exactly the classifier's guard order (no halt, no branch
//     wait), so the jump never crosses the stall's expiry;
//   - the structural flag: a rename/dispatch block persists for the whole
//     span (queues drain only through inactive stages), and trySkip's
//     renROB/renPRF/dispBlock flags are computed from the same conditions
//     that make renameStage/dispatch bump a stall counter every ticked
//     cycle.
//
// Accounting is armed at the warmup boundary (armObservers) so the stack
// decomposes the post-warmup Cycles total exactly. Detached cost is one
// nil-check per cycle plus one branch per retired µop, guarded by
// make bench-guard.

import "repro/internal/stats"

// redirectCause remembers which flush kind most recently redirected the
// frontend, so empty-ROB refill cycles are charged to the speculation
// (or memory ordering) that caused them. Cleared when rename next
// delivers a µop into the ROB: from that point the refill is over and
// head-blocked classification takes back over. Maintained unconditionally
// (flushes are rare); read only by the classifier.
const (
	redirectNone uint8 = iota
	redirectVP
	redirectMem
)

// cpiAcct is the per-run accounting state, allocated at arming time so
// the detached hot path stays pointer-nil cheap.
type cpiAcct struct {
	st stats.CPIStack
	// Per-cycle retirement tally, reset by cpiBegin, consumed by
	// cpiAccount.
	retired uint64
	spsr    uint64
	// stallBase snapshots the structural-stall counter sum at cycle
	// start; movement by cycle end marks the cycle's idle slots
	// Structural.
	stallBase uint64
}

// EnableCPIStack arms commit-slot accounting for this core's next Run
// (post-warmup, like all stats). Attaching a Probe arms it too; this
// switch exists for probe-less runs that want Result.CPI.
func (c *Core) EnableCPIStack() { c.cpiOn = true }

// armObservers is called at the measurement start (the warmup boundary,
// or run start when warmup is 0): it allocates the CPI accounting block,
// arms the probe's event hooks, and delivers the baseline sample.
// Returns the interval-sampling period and first boundary (0,0 when
// interval sampling is off).
func (c *Core) armObservers() (probeEvery, probeNext uint64) {
	if c.cpiOn || c.probe != nil {
		c.acct = &cpiAcct{}
	}
	if c.probe == nil {
		return 0, 0
	}
	c.hooks = c.probe
	c.syncMemStats()
	c.cpiSample()
	c.probe.Sample(c.committed, c.cycle, &c.st)
	if probeEvery = c.probe.SampleEvery(); probeEvery > 0 {
		probeNext = c.committed + probeEvery
	}
	return probeEvery, probeNext
}

// cpiSample delivers the accumulated CPI stack to the probe, immediately
// before every counter Sample so the probe's interval deltas line up
// with the stats.Sim deltas.
func (c *Core) cpiSample() {
	if c.hooks != nil {
		c.hooks.CPISample(c.committed, c.cycle, &c.acct.st)
	}
}

// stallSum is the structural-stall counter total; per-cycle movement is
// the ticked-path equivalent of trySkip's renROB/renPRF/dispBlock flags.
//
//tvp:hotpath
func (c *Core) stallSum() uint64 {
	return c.st.ROBFullStalls + c.st.IQFullStalls + c.st.LQFullStalls +
		c.st.SQFullStalls + c.st.PRFEmptyStalls
}

// cpiBegin opens one executed cycle's accounting. Runs after trySkip so
// the stall-counter snapshot excludes any delta-at-jump credit.
//
//tvp:hotpath
func (c *Core) cpiBegin() {
	a := c.acct
	a.retired, a.spsr = 0, 0
	a.stallBase = c.stallSum()
}

// cpiAccount closes one executed cycle: retirement slots are banked and
// the cycle's idle slots are classified against end-of-cycle state —
// the same state trySkip would have inspected at the top of the next
// step, so executed-cycle and skipped-span attribution agree.
//
//tvp:hotpath
func (c *Core) cpiAccount() {
	a := c.acct
	a.st.Retiring += a.retired
	a.st.RetiredSpSR += a.spsr
	idle := uint64(c.cfg.CommitWidth) - (a.retired + a.spsr)
	if idle == 0 {
		return
	}
	*c.classifyIdle(c.cycle, c.stallSum() != a.stallBase) += idle
	if c.robCnt > 0 && c.hooks != nil {
		h := &c.rob[c.robHead]
		c.hooks.CommitStall(c.crack[h.sIdx].pc, c.instOf(h), idle)
	}
}

// cpiSkip credits a whole skipped span (delta cycles starting at cycle n)
// in one jump, classified exactly as cycle n would have been ticked; see
// the span-invariance argument in the file comment. structural mirrors
// the renROB/renPRF/dispBlock flags trySkip derived for the span.
//
//tvp:hotpath
func (c *Core) cpiSkip(n, delta uint64, structural bool) {
	slots := delta * uint64(c.cfg.CommitWidth)
	*c.classifyIdle(n, structural) += slots
	if c.robCnt > 0 && c.hooks != nil {
		h := &c.rob[c.robHead]
		c.hooks.CommitStall(c.crack[h.sIdx].pc, c.instOf(h), slots)
	}
}

// classifyIdle picks the bucket for a cycle's idle commit slots, by
// priority:
//
//  1. Structural — rename/dispatch blocked on a full ROB/IQ/LQ/SQ or an
//     empty PRF this cycle: µops exist but cannot enter the window.
//  2. Flush recovery — from a flush until rename delivers the first
//     post-flush µop (redirectCause), idle slots are the flush's
//     recovery bubble (the top-down "bad speculation" recovery term):
//     bad-spec-VP for value-misprediction flushes, backend-memory for
//     memory-order flushes. Charged regardless of ROB occupancy — the
//     surviving older µops keep committing, but the slots they leave
//     idle exist because the squashed work must be refetched.
//  3. ROB empty: the frontend owes the backend work — waiting on an
//     unresolved mispredicted branch → bad-spec-branch; halted or
//     simply behind → frontend-bandwidth; stalled on an L1I miss or a
//     taken-branch/BTB bubble → frontend-latency.
//  4. ROB non-empty: charged to what the head µop is doing — executing
//     a memory access → backend-memory; anything else (waiting in the
//     scheduler, executing a non-memory op, or completed with its
//     result still in flight) → backend-core.
//
//tvp:hotpath
func (c *Core) classifyIdle(at uint64, structural bool) *uint64 {
	a := &c.acct.st
	switch {
	case structural:
		return &a.Structural
	case c.redirectCause == redirectVP:
		return &a.BadSpecVP
	case c.redirectCause == redirectMem:
		return &a.BackendMemory
	}
	if c.robCnt == 0 {
		switch {
		case c.waitBranchSeq != 0:
			return &a.BadSpecBranch
		case c.haltSeen:
			return &a.FrontendBandwidth
		case c.fetchStallUntil > at:
			return &a.FrontendLatency
		default:
			return &a.FrontendBandwidth
		}
	}
	h := &c.rob[c.robHead]
	if (h.isLoad || h.isStore) && h.state >= stIssued {
		return &a.BackendMemory
	}
	return &a.BackendCore
}
