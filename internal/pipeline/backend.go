package pipeline

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/rename"
)

// dispatch inserts renamed µops into the instruction queue (and the
// load/store queues), in program order, after the rename-to-dispatch
// delay. Rename-eliminated µops never dispatch (§4.1: they consume
// neither a scheduler entry nor an issue slot).
//
//tvp:hotpath
func (c *Core) dispatch() {
	for n := 0; n < c.cfg.DispatchWidth && c.dispCnt > 0; n++ {
		u := &c.rob[c.dispPtr]
		if u.renameCycle+uint64(c.cfg.RenameToDispatch) > c.cycle {
			break
		}
		if u.state == stDone {
			// Eliminated / NOP µops complete at rename.
			if c.dispPtr++; c.dispPtr == len(c.rob) {
				c.dispPtr = 0
			}
			c.dispCnt--
			continue
		}
		if c.iqCount() >= c.cfg.IQSize {
			c.st.IQFullStalls++
			break
		}
		if u.isLoad && c.lq.len() >= c.cfg.LQSize {
			c.st.LQFullStalls++
			break
		}
		if u.isStore && c.sq.len() >= c.cfg.SQSize {
			c.st.SQFullStalls++
			break
		}
		u.state = stDispatched
		c.trace(u, StageDispatch)
		c.st.IQAdded++
		if u.isLoad {
			c.lq.push(u.robIdx)
		}
		if u.isStore {
			c.sq.push(u.robIdx)
		}
		if c.useSB {
			// Classify once against current state (after the SQ push, so a
			// store's own entry is visible to pendingStoreIdx ordering).
			c.iqCnt++
			c.schedEnqueue(u.robIdx)
		} else {
			//tvplint:ignore hotpathalloc IQ capacity is preallocated at IQSize in NewFromEmulator and dispatch stalls on IQFull, so this append never grows
			c.iq = append(c.iq, u.robIdx)
			//tvplint:ignore hotpathalloc iqWake mirrors iq (same capacity, same length), so this append never grows either
			c.iqWake = append(c.iqWake, 0)
		}
		if c.dispPtr++; c.dispPtr == len(c.rob) {
			c.dispPtr = 0
		}
		c.dispCnt--
	}
}

// srcsReady reports whether all register, flag and memory-dependence
// sources of a µop are available this cycle. When it returns false it
// also returns a wake bound: a cycle before which the µop provably
// cannot issue (0 when no such bound exists). The bound is the max of
// the concrete ready times among blocking sources; it is sound because
// concrete ready times never decrease (producers broadcast exactly
// once; GVP repair only raises them), and it remains a valid lower
// bound even when a further source has no issued producer yet — that
// source can only delay the µop more, never less.
//
//tvp:hotpath
func (c *Core) srcsReady(u *uop) (bool, uint64) {
	ready := true
	var bound uint64
	for i := 0; i < int(u.nsrc); i++ {
		s := u.srcs[i]
		var r uint64
		if s.fp {
			r = c.fpReadyAt[s.name]
		} else {
			r = c.intReadyAt[s.name]
		}
		if r > c.cycle {
			ready = false
			if r != neverReady && r > bound {
				bound = r
			}
		}
	}
	if u.flagR && u.flagSrcIdx != noIdx {
		if fr := c.robReady[u.flagSrcIdx]; fr > c.cycle && c.rob[u.flagSrcIdx].uSeq == u.flagSrcUSeq {
			ready = false
			if fr != neverReady && fr > bound {
				bound = fr
			}
		}
	}
	if !ready {
		return false, bound
	}
	if u.memDepSeq != 0 && c.storePending(u.memDepSeq-1) {
		// Store execution, not a fixed cycle, resolves this; no bound.
		return false, 0
	}
	return true, 0
}

// storePending reports whether the store with the given dynamic sequence
// number is still in the store queue without having generated its address.
//
//tvp:hotpath
func (c *Core) storePending(seq uint64) bool {
	for _, si := range c.sq.live() {
		s := &c.rob[si]
		if s.seq == seq {
			return !s.executedMem
		}
		if s.seq > seq {
			return false
		}
	}
	return false
}

// fu allocation state, kept as bitmasks over cfg.FUs (bit i = unit i).
// The candidate set per µop class and the non-pipelined subset are
// static (fuSetup); per cycle fuInit rebuilds only the taken and
// still-busy masks, and allocFU reduces to mask arithmetic plus a
// trailing-zeros pick — which preserves the config-order first-match
// selection of the old linear scan. The unpipelined dividers hold their
// unit across cycles via busyUntil.
type fuState struct {
	classMask [isa.ClassBranch + 1]uint32 // FU candidate set per class
	npMask    uint32                      // non-pipelined units
	usedMask  uint32                      // taken this cycle
	busyMask  uint32                      // non-pipelined units busy this cycle
	busyUntil []uint64
}

// fuSetup precomputes the static masks (NewFromEmulator).
func (c *Core) fuSetup() {
	c.fus.busyUntil = make([]uint64, len(c.cfg.FUs))
	for i := range c.cfg.FUs {
		f := &c.cfg.FUs[i]
		for cl := range c.fus.classMask {
			if f.Classes&(uint32(1)<<uint(cl)) != 0 {
				c.fus.classMask[cl] |= 1 << uint(i)
			}
		}
		if !f.Pipelined {
			c.fus.npMask |= 1 << uint(i)
		}
	}
}

//tvp:hotpath
func (c *Core) fuInit() {
	c.fus.usedMask = 0
	var bm uint32
	for np := c.fus.npMask; np != 0; np &= np - 1 {
		i := bits.TrailingZeros32(np)
		if c.fus.busyUntil[i] > c.cycle {
			bm |= 1 << uint(i)
		}
	}
	c.fus.busyMask = bm
}

// allocFU finds a free functional unit able to execute the class.
//
//tvp:hotpath
func (c *Core) allocFU(class isa.Class) int {
	avail := c.fus.classMask[class] &^ (c.fus.usedMask | c.fus.busyMask)
	if avail == 0 {
		return -1
	}
	return bits.TrailingZeros32(avail)
}

// issue selects up to IssueWidth ready µops from the IQ, oldest first,
// assigns functional units, charges PRF reads, and computes completion
// times (including cache access for loads). Under the wakeup scoreboard
// (scoreboard.go) the scan covers only the ready set; this polling loop
// is the DisableWakeupScoreboard oracle.
//
//tvp:hotpath
func (c *Core) issue() {
	if c.useSB {
		c.sbIssue()
		return
	}
	c.fuInit()
	width := c.cfg.IssueWidth
	for i := 0; i < len(c.iq) && width > 0; {
		// Wake-bound fast path: a cached bound (see srcsReady) means the
		// entry provably cannot issue yet, without touching its ROB line.
		if c.iqWake[i] > c.cycle {
			i++
			continue
		}
		u := &c.rob[c.iq[i]]
		ready, bound := c.srcsReady(u)
		if !ready {
			c.iqWake[i] = bound
			i++
			continue
		}
		fu := c.allocFU(u.class)
		if fu < 0 {
			i++
			continue
		}
		c.iq = append(c.iq[:i], c.iq[i+1:]...)
		c.iqWake = append(c.iqWake[:i], c.iqWake[i+1:]...)
		width--
		c.fus.usedMask |= 1 << uint(fu)
		c.doIssue(u, fu)
		if c.flushedThisCycle {
			return
		}
	}
}

// doIssue executes the timing of one µop.
//
//tvp:hotpath
func (c *Core) doIssue(u *uop, fu int) {
	u.state = stIssued
	u.fu = uint8(fu)
	c.trace(u, StageIssue)
	c.st.IQIssued++

	// Integer PRF read ports: physical, non-hardwired sources only
	// (hardwired and inlined names are muxed from the scheduler entry,
	// §3.2.1 and §6.1 footnote).
	for i := 0; i < int(u.nsrc); i++ {
		s := u.srcs[i]
		if !s.fp && s.name.IsPhys() && !s.name.IsHardwired() {
			c.st.IntPRFReads++
			// GVP: note consumption of a wide predicted register; once
			// consumed, a misprediction can no longer be repaired
			// silently (§3.4.2).
			if pi := c.predictedReg[s.name]; pi != noIdx {
				c.rob[pi].vpConsumed = true
			}
		}
	}

	switch {
	case u.isLoad:
		c.issueLoad(u)
	case u.isStore:
		// issueStore may flush younger µops on an ordering violation; the
		// store itself is always older than the violating load and
		// survives, so its bookkeeping below still applies.
		c.issueStore(u)
	default:
		lat := c.classLatency(u)
		c.robReady[u.robIdx] = c.cycle + lat
		if !c.cfg.FUs[fu].Pipelined {
			c.fus.busyUntil[fu] = c.robReady[u.robIdx]
		}
	}

	// Speculative wakeup: broadcast the destination availability.
	if u.hasDst && u.freshDst {
		if u.dstFP {
			c.fpReadyAt[u.dst] = c.robReady[u.robIdx]
		} else if !u.vpWide {
			c.intReadyAt[u.dst] = c.robReady[u.robIdx]
		}
	}
	//tvplint:ignore hotpathalloc execL capacity is preallocated at ROBSize in NewFromEmulator and in-flight µops cannot exceed the ROB, so this append never grows
	c.execL = append(c.execL, u.robIdx)

	// Scoreboard broadcast: readiness just became concrete, so wake the
	// waiters that were registered on it. The destination-register list
	// pairs with the speculative wakeup above (same condition, same
	// readyAt value); the slot list covers flag consumers (robReady is now
	// concrete) and memory-dependent loads (executedMem is now set for
	// stores). Runs after all ready-time writes so reclassification sees
	// final state.
	// (The != noIdx guards keep the empty-list common case — most
	// destinations have no waiters — from paying the wakeList call.)
	if c.useSB {
		if u.hasDst && u.freshDst {
			if u.dstFP {
				if c.fpWaitHead[u.dst] != noIdx {
					c.wakeList(&c.fpWaitHead[u.dst])
				}
			} else if !u.vpWide {
				if c.intWaitHead[u.dst] != noIdx {
					c.wakeList(&c.intWaitHead[u.dst])
				}
			}
		}
		if c.slotWaitHead[u.robIdx] != noIdx {
			c.wakeList(&c.slotWaitHead[u.robIdx])
		}
	}
}

//tvp:hotpath
func (c *Core) classLatency(u *uop) uint64 {
	m := c.cfg
	switch u.class {
	case isa.ClassIntALU:
		return uint64(m.IntALULat)
	case isa.ClassIntMul:
		return uint64(m.IntMulLat)
	case isa.ClassIntDiv:
		return uint64(m.IntDivLat)
	case isa.ClassFPALU:
		return uint64(m.FPALULat)
	case isa.ClassFPMul:
		if c.crack[u.sIdx].fpMac {
			return uint64(m.FPMacLat)
		}
		return uint64(m.FPMulLat)
	case isa.ClassFPDiv:
		return uint64(m.FPDivLat)
	case isa.ClassBranch:
		return uint64(m.BranchLat)
	case isa.ClassStore:
		return uint64(m.StoreLat)
	}
	return 1
}

// issueLoad performs address generation, store-to-load forwarding, and
// the cache access.
//
//tvp:hotpath
func (c *Core) issueLoad(u *uop) {
	u.executedMem = true
	agu := c.cycle + 1
	agu += c.tlbs.Translate(u.ea, false)

	// Store-to-load forwarding against older stores with known addresses.
	fwd := noIdx
	partial := false
	for _, si := range c.sq.live() {
		s := &c.rob[si]
		if s.seq >= u.seq {
			break
		}
		if !s.executedMem || !overlaps(u.ea, u.memSize, s.ea, s.memSize) {
			continue
		}
		fwd, partial = si, !contains(u.ea, u.memSize, s.ea, s.memSize)
	}
	switch {
	case fwd != noIdx && !partial:
		// Full forward from the youngest covering store.
		rc := agu + uint64(c.cfg.L1D.LoadToUse)
		if fr := c.robReady[fwd]; fr > rc {
			rc = fr
		}
		c.robReady[u.robIdx] = rc
	case fwd != noIdx:
		// Partial overlap: wait for the store data and replay through
		// the cache.
		c.robReady[u.robIdx] = maxu(c.l1dAccess(u, agu, false), c.robReady[fwd]+4)
	default:
		c.robReady[u.robIdx] = c.l1dAccess(u, agu, false)
	}
}

// issueStore generates the store address, releases dependent loads in the
// store-set predictor, and checks for memory order violations: a younger
// load that already executed with an overlapping address read stale data,
// so the pipeline flushes at that load and the store sets learn the pair
// (§Table 2 Store Sets row).
//
//tvp:hotpath
func (c *Core) issueStore(u *uop) {
	u.executedMem = true
	c.robReady[u.robIdx] = c.cycle + uint64(c.cfg.StoreLat)
	c.ssets.StoreExecuted(c.crack[u.sIdx].pc, u.seq)

	for _, li := range c.lq.live() {
		l := &c.rob[li]
		if l.seq > u.seq && l.executedMem && overlaps(l.ea, l.memSize, u.ea, u.memSize) {
			c.ssets.Violation(c.crack[l.sIdx].pc, c.crack[u.sIdx].pc)
			c.st.MemOrderFlushes++
			c.redirectCause = redirectMem
			c.flush(l.seq, uint64(c.cfg.MemOrderFlushPenalty))
			return
		}
	}
}

// complete retires execution: validation of value predictions, branch
// resolution (fetch resume), and PRF write accounting.
//
//tvp:hotpath
func (c *Core) complete() {
	c.flushedThisCycle = false
	// Single-pass compaction: survivors slide down as completions are
	// processed, instead of paying a memmove per completed entry.
	out := c.execL[:0]
	for k := 0; k < len(c.execL); k++ {
		i := c.execL[k]
		// Poll the dense ready array first; the 128-byte uop line is only
		// touched once the µop is actually due.
		if c.robReady[i] > c.cycle {
			//tvplint:ignore hotpathalloc out aliases execL[:0] and receives at most len(execL) survivors, so the append never grows
			out = append(out, i)
			continue
		}
		u := &c.rob[i]
		u.state = stDone
		c.trace(u, StageComplete)

		// Value prediction validation, in place at the functional unit
		// (§3.3): the physical destination register name is the
		// prediction; compare it with the computed result. Under the
		// EOLE-style alternative (§2.2) validation is deferred to retire.
		if u.vpUsed && !c.cfg.VP.ValidateAtRetire {
			// Splice survivors and the unprocessed tail back into a
			// consistent list first: a misprediction flushes, and flush
			// filters execL in place. (Overlapping forward copy; both
			// halves live in execL's own backing, so no allocation.)
			n := len(out)
			//tvplint:ignore hotpathalloc splice of execL's own elements into execL's own backing (len(out)+tail <= len(execL)), never grows
			c.execL = append(out, c.execL[k+1:]...)
			if !c.validateVP(u) {
				return // flushed; execL was rebuilt
			}
			out = c.execL[:n]
			k = n - 1 // resume at what followed u
		}

		// Branch resolution: resume fetch if it was stalled on this
		// branch.
		if u.isBranch && c.waitBranchSeq == u.seq+1 {
			c.waitBranchSeq = 0
			c.fetchStallUntil = maxu(c.fetchStallUntil, c.cycle+redirectPenalty)
		}

		// Integer PRF write (suppressed for inlined/hardwired VP
		// destinations — there is nothing to write — and for correct GVP
		// wide predictions, whose value was already written at rename).
		if u.hasDst && u.freshDst && !u.dstFP && !u.vpWide {
			c.st.IntPRFWrites++
		}
	}
	c.execL = out
}

// validateVP checks a used prediction against the computed result. It
// returns false when a flush occurred.
//
//tvp:hotpath
func (c *Core) validateVP(u *uop) bool {
	s := c.ra.at(u.seq)
	// bugSeqPlus1 models a broken validation comparator for the injected
	// instruction (injectVPBug): the corrupted prediction passes
	// validation so only the retire checker can catch it.
	if s.vpValue == s.d.Result || c.bugSeqPlus1 == u.seq+1 {
		if u.vpWide {
			// The prediction was already written at rename; the
			// architectural result is still written back (Fig. 6's extra
			// GVP write traffic).
			c.predictedReg[u.dst] = noIdx
			c.st.IntPRFWrites++
		}
		return true
	}

	// Misprediction.
	c.st.VPIncorrectUsed++
	c.vpred.Silence(c.cycle)

	if u.vpWide && !u.vpConsumed {
		// GVP silent repair (§3.4.2): no dependent has read the
		// prediction, so the correct value simply overwrites it.
		c.predictedReg[u.dst] = noIdx
		c.intReadyAt[u.dst] = c.cycle
		c.st.IntPRFWrites++
		u.vpUsed = false // commits as a non-used (repaired) prediction
		return true
	}

	c.st.VPFlushes++
	if c.hooks != nil {
		c.hooks.VPFlush(c.crack[u.sIdx].pc, c.instOf(u))
	}
	c.redirectCause = redirectVP
	if u.vpWide {
		// GVP: the instruction owns a physical register; the correct
		// result overwrites the prediction and only younger µops squash.
		c.predictedReg[u.dst] = noIdx
		c.intReadyAt[u.dst] = c.cycle
		c.st.IntPRFWrites++
		u.vpUsed = false
		c.flush(u.seq+1, redirectPenalty)
	} else {
		// MVP/TVP: the destination was renamed to a hardwired register
		// or has no storage at all; the instruction must be refetched
		// and renamed again (§3.4), so the flush includes it.
		c.flush(u.seq, redirectPenalty)
	}
	return false
}

// commit retires up to CommitWidth completed µops in program order,
// updating the committed RAT, training the value predictor from the
// VP-tracking FIFO, performing store writebacks, and accumulating the
// paper's per-category elimination statistics.
//
//tvp:hotpath
func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.robCnt > 0; n++ {
		u := &c.rob[c.robHead]
		if u.state != stDone || c.robReady[c.robHead] > c.cycle {
			break
		}

		// Retire-time validation (§2.2's EOLE-style scheme): read the
		// computed result back from the PRF (the +1 PRF read the paper
		// charges this design) and compare against the prediction.
		if u.vpUsed && c.cfg.VP.ValidateAtRetire {
			c.st.IntPRFReads++
			if !c.validateVP(u) {
				return // flushed (including u itself for MVP/TVP)
			}
		}

		if u.hasDst {
			if u.dstFP {
				c.ren.CommitDefFP(u.dstArch, u.dst)
			} else {
				c.ren.CommitDefInt(u.dstArch, u.dst, u.dstWide, u.dstSpec)
			}
		}

		if u.isStore {
			if c.sq.len() == 0 || *c.sq.front() != u.robIdx {
				panic("pipeline: store commit out of order")
			}
			c.sq.popFront()
			c.l1dAccess(u, c.cycle, true)
		}
		if u.isLoad {
			if c.lq.len() == 0 || *c.lq.front() != u.robIdx {
				panic("pipeline: load commit out of order")
			}
			c.lq.popFront()
		}

		if u.kind == isa.UOpMain {
			c.commitMainStats(u)
		}

		if c.xcheck != nil {
			c.xcheck.retireUop(c, u)
		}
		c.trace(u, StageCommit)
		if c.acct != nil {
			// CPI stack: this commit slot retired a µop (counted here,
			// after retire-time validation, so a flushed µop never counts).
			if u.eliminated && u.elimOrigin == rename.OriginSpSR {
				c.acct.spsr++
			} else {
				c.acct.retired++
			}
		}
		c.st.UOps++
		if u.last {
			c.st.ArchInsts++
			c.committed++
			c.ra.retire(u.seq)
		}
		if u.vpWide {
			c.predictedReg[u.dst] = noIdx
		}
		if c.robHead++; c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robCnt--
		c.lastCommitC = c.cycle
	}
}

// commitMainStats accumulates per-instruction statistics at retirement of
// the main µop: elimination categories (Fig. 4), VP coverage metrics
// (§6.1), and value predictor training (§3.3: the FIFO drains at retire).
//
//tvp:hotpath
func (c *Core) commitMainStats(u *uop) {
	in := c.instOf(u)
	if u.moveBlocked && !u.eliminated {
		c.st.MoveNotElim++
	}
	if u.eliminated {
		switch u.elimOrigin {
		case rename.OriginZeroOne:
			if u.elimKind == rename.KindOne {
				c.st.OneIdiomElim++
			} else {
				c.st.ZeroIdiomElim++
			}
		case rename.OriginMove:
			c.st.MoveElim++
		case rename.OriginNineBit:
			c.st.NineBitElim++
		case rename.OriginSpSR:
			c.st.SpSRElim++
			switch u.elimKind {
			case rename.KindZero:
				c.st.SpSRZero++
			case rename.KindOne:
				c.st.SpSROne++
			case rename.KindValue:
				c.st.SpSRZero++ // small-constant results grouped with zero-idiom class
			case rename.KindMove:
				c.st.SpSRMove++
			case rename.KindNop:
				c.st.SpSRNop++
			case rename.KindBranch:
				c.st.SpSRBranch++
			}
			if in.Op == isa.CSEL || in.Op == isa.CSINC || in.Op == isa.CSNEG {
				c.st.SpSRCondSelect++
			}
		}
	}

	if in.VPEligible() {
		c.st.VPEligible++
	}
	if c.vpred != nil && in.VPEligible() {
		// The fetch-time lookup lives in the run-ahead ring, re-read here
		// rather than carried in the ROB entry: the core holds a record's
		// chunk until the instruction commits.
		s := c.ra.at(u.seq)
		if u.vpUsed {
			c.st.VPCorrectUsed++ // a used wrong prediction never commits used
		} else {
			c.st.VPTrainOnly++
		}
		c.vpred.Train(&s.vp, s.d.Result)
	}
}

// syncMemStats copies cache/TLB/prefetch counters into the stats block so
// snapshot subtraction (warmup exclusion) covers them.
//
//tvp:hotpath
func (c *Core) syncMemStats() {
	c.st.L1IAccesses, c.st.L1IMisses = c.mem.L1I.Accesses, c.mem.L1I.Misses
	c.st.L1DAccesses, c.st.L1DMisses = c.mem.L1D.Accesses, c.mem.L1D.Misses
	c.st.L2Accesses, c.st.L2Misses = c.mem.L2.Accesses, c.mem.L2.Misses
	c.st.L3Accesses, c.st.L3Misses = c.mem.L3.Accesses, c.mem.L3.Misses
	c.st.L1TLBMisses = c.tlbs.L1I.Misses + c.tlbs.L1D.Misses
	c.st.L2TLBMisses = c.tlbs.L2.Misses
	c.st.PrefetchesIssued = c.mem.L1D.PFIssued + c.mem.L2.PFIssued
	c.st.PrefetchesUseful = c.mem.L1D.PFUseful + c.mem.L2.PFUseful
}
