package pipeline

import "math/bits"

// Event-driven cycle skipping.
//
// The simulator spends a large fraction of its wall time ticking cycles
// in which no pipeline stage does anything: the frontend is stalled on a
// long L1I/L2/L3 miss or a mispredicted branch, every in-flight µop is
// waiting on an in-flight memory access or a multi-cycle unit, and
// nothing can commit. trySkip detects those spans at the top of step()
// and advances the cycle counter (and the Cycles statistic) over them in
// one jump.
//
// Correctness argument (the invariant TestCycleSkipEquivalence asserts):
// a cycle may be skipped only if no stage would mutate state *or
// counters* during it. All stage activity is gated on cycle comparisons
// against state that only stages themselves mutate, so during a provably
// idle span nothing changes and idleness persists until the first
// computed wake event:
//
//   - fetch acts whenever it is not stalled (fetchStallUntil), not
//     waiting on a mispredicted branch, and the program has not halted.
//     Its only autonomous wake event is fetchStallUntil.
//   - decode/rename/dispatch act when their input queue is non-empty and
//     the stage delay has elapsed — except when rename is blocked on a
//     full ROB / empty PRF or dispatch on a full IQ/LQ/SQ. Those blocked
//     cycles increment exactly one stall counter each and change nothing
//     else; the blocking condition is constant across an idle span
//     (queues only drain via issue/commit, which are idle), so the
//     counter is credited delta at the jump instead of 1 per tick.
//   - issue acts when some IQ entry's sources are all ready. Source
//     ready-times (intReadyAt/fpReadyAt, flag-producer readyCycle) only
//     change when stages run, so each entry's earliest-possible issue
//     cycle is computable. Entries whose producers have not issued yet
//     (ready-time neverReady) or which wait on an unexecuted store are
//     unreachable before that producer acts, and the producer's own wake
//     event keeps the chain anchored: the core never skips past a cycle
//     in which any µop could issue.
//   - writeback/commit act when an issued µop's readyCycle arrives or
//     the ROB head is completed; both are explicit wake events.
//
// Every wake event is thus an underestimate of the next active cycle at
// worst (waking early costs one idle pass and skips again), never an
// overestimate — and all skipped cycles are credited to both c.cycle and
// c.st.Cycles, so every mutation in the run happens at exactly the same
// cycle number as in a tick-by-tick simulation.

// trySkip advances over a provably idle span. Called at the top of
// step(), so between-step observation points (warmup snapshot, probe
// samples, the Run loop) see exactly the cycle values of a tick-by-tick
// run.
//
//tvp:hotpath
func (c *Core) trySkip() {
	n := c.cycle
	// Hot early-out: fetch works this cycle unless stalled or its output
	// queue is full (a full fetch queue makes fetch a pure no-op — no
	// state, no counters — and it can only drain through decode, whose
	// own wake event anchors the span). This check is the whole cost of
	// the feature on fetch-active cycles.
	fetchIdle := c.haltSeen || c.waitBranchSeq != 0 || c.fetchStallUntil > n ||
		c.fetchQ.len() >= c.cfg.FetchQueue
	if !fetchIdle {
		return
	}

	w := neverReady // earliest cycle any stage can act

	// Decode: acts once the fetch-queue head clears its stage delay AND
	// the µop queue has room for the head's crack count. With the µop
	// queue full, decode is a pure no-op; it drains only through rename,
	// whose clause below anchors the wake.
	if c.fetchQ.len() > 0 {
		f := c.fetchQ.front()
		e := f.fetchCycle + uint64(c.cfg.FetchToDecode)
		if e <= n {
			cnt := 1
			if c.crack[f.sIdx].two {
				cnt = 2
			}
			if c.decodeQ.len()+cnt <= dqCap {
				return
			}
		} else if e < w {
			w = e
		}
	}

	// Rename: acts (or counts a stall) once the µop-queue head clears its
	// delay. A blocked rename increments exactly one stall counter per
	// cycle; the block cannot clear during an idle span.
	renROB, renPRF := false, false
	if c.decodeQ.len() > 0 {
		e := c.decodeQ.front().decodeCycle + uint64(c.cfg.DecodeToRename)
		if e <= n {
			switch {
			case c.robCnt >= c.cfg.ROBSize:
				renROB = true
			case c.ren.FreeInt() < 1 || c.ren.FreeFP() < 1:
				renPRF = true
			default:
				return
			}
		} else if e < w {
			w = e
		}
	}

	// Dispatch: same structure as rename for the IQ/LQ/SQ-full stalls.
	const (
		dispNone = iota
		dispIQ
		dispLQ
		dispSQ
	)
	dispBlock := dispNone
	if c.dispCnt > 0 {
		u := &c.rob[c.dispPtr]
		e := u.renameCycle + uint64(c.cfg.RenameToDispatch)
		if e <= n {
			switch {
			case u.state == stDone:
				return // eliminated µop: dispatch advances past it
			case c.iqCount() >= c.cfg.IQSize:
				dispBlock = dispIQ
			case u.isLoad && c.lq.len() >= c.cfg.LQSize:
				dispBlock = dispLQ
			case u.isStore && c.sq.len() >= c.cfg.SQSize:
				dispBlock = dispSQ
			default:
				return
			}
		} else if e < w {
			w = e
		}
	}

	// Commit: acts when the ROB head has completed.
	if c.robCnt > 0 {
		if h := &c.rob[c.robHead]; h.state == stDone {
			hr := c.robReady[c.robHead]
			if hr <= n {
				return
			}
			if hr < w {
				w = hr
			}
		}
	}

	// Writeback: acts when any issued µop's result arrives.
	for _, i := range c.execL {
		r := c.robReady[i]
		if r <= n {
			return
		}
		if r < w {
			w = r
		}
	}

	// Issue: earliest cycle any IQ entry's sources can all be ready
	// under current state. neverReady sources and unexecuted-store
	// dependences resolve only through another µop's wake event.
	//
	// Under the wakeup scoreboard the sWaiting entries are exactly the
	// no-contribution cases of the polling walk below (an unbounded
	// obstacle anchors them to a producer's own wake event), so only the
	// readyMask bits are inspected — against the cached schedWake bounds
	// (order is irrelevant for a minimum, so this walks the words flat).
	// A cached bound is a lower bound on the fresh recomputation (ready
	// times only increase), so the scoreboard can only under-skip, never
	// over-skip: a cycle it declines to skip is ticked idly, with
	// identical state mutations and identical delta-vs-tick stall/CPI
	// crediting.
	if c.useSB {
		for wi, bm := range c.readyMask {
			for bm != 0 {
				i := int32(wi<<6 + bits.TrailingZeros64(bm))
				bm &= bm - 1
				e := c.schedWake[i]
				if e <= n {
					return
				}
				if e < w {
					w = e
				}
			}
		}
		// Entries maturing inside the wake wheel anchor the jump to the
		// earliest non-empty slot (always strictly future: the current
		// cycle's slot was drained by wheelAdvance before trySkip ran).
		if e := c.wheelNext(); e < w {
			w = e
		}
	}
	for _, i := range c.iq {
		u := &c.rob[i]
		if u.memDepSeq != 0 && c.storePending(u.memDepSeq-1) {
			continue
		}
		var e uint64
		for k := 0; k < int(u.nsrc); k++ {
			s := u.srcs[k]
			var v uint64
			if s.fp {
				v = c.fpReadyAt[s.name]
			} else {
				v = c.intReadyAt[s.name]
			}
			if v > e {
				e = v
			}
		}
		if u.flagR && u.flagSrcIdx != noIdx {
			if fr := c.robReady[u.flagSrcIdx]; fr > e && c.rob[u.flagSrcIdx].uSeq == u.flagSrcUSeq {
				e = fr
			}
		}
		if e <= n {
			return
		}
		if e < w {
			w = e
		}
	}

	// Fetch resumes at fetchStallUntil when that is still in the future
	// (halt and branch waits resolve only through other stages' wake
	// events, and a fetch blocked purely on a full fetch queue wakes via
	// decode's pop, which the clauses above already anchor — a stale past
	// fetchStallUntil must not clamp the jump).
	if !c.haltSeen && c.waitBranchSeq == 0 && c.fetchStallUntil > n && c.fetchStallUntil < w {
		w = c.fetchStallUntil
	}

	// Never skip past the deadlock watchdog: a genuinely wedged machine
	// must panic at the identical cycle either way.
	if limit := c.lastCommitC + deadlockWindow; w > limit {
		w = limit
	}
	if w <= n {
		return
	}

	delta := w - n
	// CPI stack: the whole span is idle, so its delta × CommitWidth
	// commit slots all classify as cycle n would have (every classifier
	// input is frozen across the span — see cpistack.go). Credited before
	// the state mutations below so classifyIdle(n, …) sees span state.
	if c.acct != nil {
		c.cpiSkip(n, delta, renROB || renPRF || dispBlock != dispNone)
	}
	c.cycle = w
	c.st.Cycles += delta
	c.skipped += delta
	if renROB {
		c.st.ROBFullStalls += delta
	}
	if renPRF {
		c.st.PRFEmptyStalls += delta
	}
	switch dispBlock {
	case dispIQ:
		c.st.IQFullStalls += delta
	case dispLQ:
		c.st.LQFullStalls += delta
	case dispSQ:
		c.st.SQFullStalls += delta
	}
}

// wheelNext returns the earliest cycle any wake-wheel entry matures, or
// neverReady when the wheel is empty. Every parked bound lies strictly
// within (cycle, cycle+wheelSpan) — the insert condition, plus the
// current slot being drained before trySkip runs — so the first set
// slot bit at or after the next cycle's position maps back to a unique
// absolute cycle.
func (c *Core) wheelNext() uint64 {
	start := (c.cycle + 1) & (wheelSpan - 1)
	nw := len(c.wheelBits)
	hw := int(start >> 6)
	hb := uint(start & 63)
	for k := 0; k <= nw; k++ {
		w := hw + k
		if w >= nw {
			w -= nw
		}
		bm := c.wheelBits[w]
		if k == 0 {
			bm &= ^uint64(0) << hb
		} else if k == nw {
			bm &= 1<<hb - 1
		}
		if bm != 0 {
			s := uint64(w<<6 + bits.TrailingZeros64(bm))
			return c.cycle + 1 + ((s - start) & (wheelSpan - 1))
		}
	}
	return neverReady
}
