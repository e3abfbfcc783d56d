package pipeline

// flush squashes every in-flight µop with dynamic sequence number >= seq,
// rewinds the run-ahead ring's cursor so those instructions are refetched,
// repairs the rename state (copy CRAT to RAT, then re-apply surviving
// in-flight mappings in order — the recovery scheme of §3.2.1), and stalls
// fetch for the redirect penalty. This is the recovery path for value
// mispredictions (including the mispredicted instruction itself under
// MVP/TVP, §3.4) and for memory order violations.
func (c *Core) flush(seq uint64, penalty uint64) {
	c.flushedThisCycle = true

	// Squash ROB entries from the tail back to the flush point.
	for c.robCnt > 0 {
		tail := (c.robTail - 1 + len(c.rob)) % len(c.rob)
		u := &c.rob[tail]
		if u.seq < seq {
			break
		}
		if u.hasDst {
			if u.dstFP {
				c.ren.ReleaseFP(u.dst)
			} else {
				c.ren.Release(u.dst)
				if u.vpWide && c.predictedReg[u.dst] == u.robIdx {
					c.predictedReg[u.dst] = noIdx
				}
			}
		}
		c.trace(u, StageSquash)
		if c.useSB && u.state == stDispatched {
			// Scoreboard teardown: a waiting entry is unlinked from its
			// producer's list explicitly (slot indices recycle; a stale
			// link would alias the slot's next occupant); a ready entry
			// clears its readyMask bit.
			c.iqCnt--
			switch c.schedState[tail] {
			case sWaiting:
				c.sbUnlink(int32(tail))
			case sWheel:
				c.wheelUnlink(int32(tail))
			case sReady:
				c.readyMask[tail>>6] &^= 1 << (uint(tail) & 63)
			}
			c.schedState[tail] = sNone
		}
		u.uSeq = 0 // invalidate flag-dependence references to this slot
		c.robTail = tail
		c.robCnt--
		c.st.SquashedUOps++
	}

	// Rebuild the dispatch pointer: entries renamed but not yet
	// dispatched are a contiguous suffix of the live ROB.
	c.dispCnt = 0
	c.dispPtr = c.robTail
	for i := 0; i < c.robCnt; i++ {
		idx := (c.robTail - 1 - i + 2*len(c.rob)) % len(c.rob)
		if c.rob[idx].state != stRenamed {
			break
		}
		c.dispPtr = idx
		c.dispCnt++
	}

	// Filter the scheduler, memory queues and in-flight execution list.
	// The scheduler's wake-hint array stays in lockstep with iq: surviving
	// entries keep their (still sound) bounds, squashed ones drop out.
	{
		out, wout := c.iq[:0], c.iqWake[:0]
		for k, i := range c.iq {
			if c.rob[i].seq < seq {
				out = append(out, i)
				wout = append(wout, c.iqWake[k])
			}
		}
		c.iq, c.iqWake = out, wout
	}
	// (readyMask needs no filter pass: the squash loop above cleared each
	// squashed sReady entry's bit; survivors keep their still-sound
	// schedWake bounds, mirroring the iqWake treatment.)
	c.lq.filterLive(func(i int32) bool { return c.rob[i].seq < seq })
	c.sq.filterLive(func(i int32) bool { return c.rob[i].seq < seq })
	c.execL = c.filterIdx(c.execL, seq)

	// Rename recovery: restore committed mappings, then replay surviving
	// speculative definitions in program order.
	c.ren.RestoreFromCRAT()
	c.lastFlagWIdx = noIdx
	c.lastFlagWSeq = 0
	for i, idx := 0, c.robHead; i < c.robCnt; i, idx = i+1, (idx+1)%len(c.rob) {
		u := &c.rob[idx]
		if u.hasDst {
			if u.dstFP {
				c.ren.ReplayDefFP(u.dstArch, u.dst)
			} else {
				c.ren.ReplayDefInt(u.dstArch, u.dst, u.dstWide, u.dstSpec)
			}
		}
		if u.flagW {
			c.lastFlagWIdx = int32(idx)
			c.lastFlagWSeq = u.uSeq
		}
	}

	// Frontend restart.
	c.fetchQ.clear()
	c.decodeQ.clear()
	c.ra.rewind(seq)
	c.curFetchLine = ^uint64(0)
	c.waitBranchSeq = 0
	c.haltSeen = false
	c.fetchStallUntil = maxu(c.fetchStallUntil, c.cycle+penalty)
}

// filterIdx removes squashed µops (seq >= boundary) from an index list,
// preserving order. Squashed ROB slots keep their seq until reused, so the
// lookup is valid even for entries squashed earlier in this flush.
func (c *Core) filterIdx(list []int32, seq uint64) []int32 {
	out := list[:0]
	for _, i := range list {
		if c.rob[i].seq < seq {
			out = append(out, i)
		}
	}
	return out
}
