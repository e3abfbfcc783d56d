package pipeline

import (
	"repro/internal/config"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/rename"
)

// fetch models the 16-wide fetch stage: it pulls correct-path instructions
// from the run-ahead ring, accounts the branch predictions and probes the
// value predictor (once per dynamic instance), enforces taken-branch and
// BTB-mistarget bubbles, stalls behind mispredicted branches until they
// resolve, and charges L1I/ITLB latency per fetched line.
//
//tvp:hotpath
func (c *Core) fetch() {
	if c.haltSeen || c.cycle < c.fetchStallUntil || c.waitBranchSeq != 0 {
		return
	}
	for fetched := 0; fetched < c.cfg.FetchWidth && c.fetchQ.len() < c.cfg.FetchQueue; fetched++ {
		s := c.ra.peek()
		if s == nil {
			c.haltSeen = true
			return
		}
		d := &s.d
		if d.Inst.Op == isa.HALT {
			c.ra.advance()
			c.haltSeen = true
			return
		}

		// Instruction cache: charge when crossing into a new line.
		line := d.PC &^ 63
		if line != c.curFetchLine {
			lat := c.tlbs.Translate(d.PC, true)
			ready := c.mem.L1I.Access(d.PC, c.cycle+lat, false, false)
			c.curFetchLine = line
			if ready > c.cycle+uint64(c.cfg.L1I.LoadToUse) {
				// Miss: stall fetch until the fill returns.
				c.fetchStallUntil = ready
				return
			}
		}

		if d.Seq == c.fetchedTo {
			c.fetchedTo++
			c.firstFetch(s)
		}

		c.ra.advance()
		f := c.fetchQ.pushSlot()
		f.seq = d.Seq
		f.fetchCycle = c.cycle
		f.sIdx = int32(d.Index)
		c.st.FetchedInsts++

		if c.crack[d.Index].flags&cfBranch != 0 {
			if s.bpMispred {
				// Fetch cannot proceed past a mispredicted branch until
				// it resolves (trace-driven discipline: the wrong path is
				// not simulated, its cost is this stall).
				c.waitBranchSeq = d.Seq + 1
				return
			}
			if d.Taken {
				bubble := uint64(c.cfg.TakenBranchPenalty)
				if s.btbMiss {
					bubble = uint64(c.cfg.DecodeMistarget)
				}
				c.fetchStallUntil = c.cycle + 1 + bubble
				c.curFetchLine = ^uint64(0)
				return
			}
		}
	}
}

// firstFetch does the once-per-dynamic-instance work at an instruction's
// first fetch: it counts the branch predictions the run-ahead producer
// made (TAGE, BTB, RAS, indirect cache), fires the misprediction hook,
// and probes the value predictor's tables with the producer's indices
// and tags. A refetch after a flush reuses all of it.
//
//tvp:hotpath
func (c *Core) firstFetch(s *raSlot) {
	d := &s.d
	in := d.Inst
	if s.btbMiss {
		c.st.BTBMisses++
	}
	switch {
	case isa.IsCondBranch(in.Op):
		c.st.BranchLookups++
		if s.bpMispred {
			c.st.BranchMispredicts++
			c.mispredictHook(d)
		}
	case in.Op == isa.RET:
		if s.bpMispred {
			c.st.RASMispreds++
			c.mispredictHook(d)
		}
	case in.Op == isa.BR:
		if s.bpMispred {
			c.st.IndirectMispreds++
			c.mispredictHook(d)
		}
	}

	if c.vpred != nil && in.VPEligible() {
		c.vpred.Predict(&s.vp)
		s.vpValue = s.vp.Value
	}
}

//tvp:hotpath
func (c *Core) mispredictHook(d *emu.DynInst) {
	if c.hooks != nil {
		c.hooks.BranchMispredict(d.PC, d.Inst)
	}
}

// crackStatic is the precomputed decode of one static instruction: its
// PC (prog.PC is a pure function of the index), its Main-µop class,
// whether a BaseUpdate µop follows (pre/post-index memory ops), whether
// it is a fused multiply-add (the one latency special case), its source
// plan, and its predicate flags. Built once per program text in
// NewFromEmulator, it replaces the per-dynamic-instruction
// isa.OpClass/CrackCount switches in decode, the collectSrcs opcode
// switch, the rename-stage isa predicate calls, and the dynamic-record
// PC reads on the backend's hot paths — identical output, no per-µop
// dispatch on the opcode.
//
//tvp:hotstruct
type crackStatic struct {
	pc    uint64
	class isa.Class
	two   bool
	fpMac bool
	plan  uint8 // srcPlan bits (sp*)
	flags uint8 // predicate bits (cf*)
	need  uint8 // sp{N,M} bits for which rename must read the RAT at all
}

// Source-plan bits: which register sources a µop reads, with the static
// conditions (UseImm, addressing mode) already folded in. Bit order is
// collection order: int Rn, int Rm, int Rd, then FP Rn/Rm/Ra/Rd —
// every opcode's source list in isa order is a subsequence of that.
const (
	spN     uint8 = 1 << iota // int source Rn (the pre-renamed srcN)
	spM                       // int source Rm (register form only)
	spRdInt                   // int source Rd (MOVK read-modify-write, STR data)
	spFPn                     // FP source Rn
	spFPm                     // FP source Rm
	spFPa                     // FP source Ra (FMADD)
	spFPd                     // FP source Rd (FSTR data)
)

// Predicate flags: the per-µop isa predicate calls of the rename and
// fetch stages, evaluated once per static instruction.
const (
	cfDecide       uint8 = 1 << iota // reduction-engine eligible (int, non-mem, non-FCMP)
	cfSetsFlags                      // isa.SetsFlags
	cfReadsFlags                     // isa.ReadsFlags
	cfBranch                         // isa.IsBranch
	cfStaticReduce                   // Decide can fire with no dynamic knowledge
)

// srcPlanOf computes the static source plan — the same obstacle set, in
// the same order, as the opcode switch collectSrcs used to dispatch on
// per dynamic µop. RET/BR read Rn through the RAT exactly like srcN, so
// they share the spN bit.
func srcPlanOf(in *isa.Inst) uint8 {
	switch in.Op {
	case isa.ADD, isa.ADDS, isa.SUB, isa.SUBS, isa.AND, isa.ANDS,
		isa.ORR, isa.EOR, isa.BIC, isa.LSL, isa.LSR, isa.ASR, isa.MUL,
		isa.SDIV, isa.UDIV:
		if in.UseImm {
			return spN
		}
		return spN | spM
	case isa.UBFM, isa.RBIT:
		return spN
	case isa.MOVK:
		return spRdInt // read-modify-write
	case isa.CSEL, isa.CSINC, isa.CSNEG:
		return spN | spM
	case isa.LDR, isa.FLDR:
		if in.Mode == isa.AddrReg {
			return spN | spM
		}
		return spN
	case isa.STR:
		if in.Mode == isa.AddrReg {
			return spN | spM | spRdInt
		}
		return spN | spRdInt // store data
	case isa.FSTR:
		if in.Mode == isa.AddrReg {
			return spN | spM | spFPd
		}
		return spN | spFPd // store data
	case isa.CBZ, isa.CBNZ, isa.TBZ, isa.TBNZ, isa.RET, isa.BR, isa.SCVTF:
		return spN
	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FCMP:
		return spFPn | spFPm
	case isa.FMADD:
		return spFPn | spFPm | spFPa
	case isa.FNEG, isa.FABS, isa.FMOV, isa.FCVTZS:
		return spFPn
	}
	return 0 // MOVZ, MOVN, B, BL, BCOND: no register sources
}

// crackFlagsOf evaluates the static predicate bits.
func crackFlagsOf(in *isa.Inst) uint8 {
	var f uint8
	if !isa.IsMem(in.Op) && !isa.IsFP(in.Op) && in.Op != isa.FCMP {
		f |= cfDecide
	}
	if isa.SetsFlags(in.Op) {
		f |= cfSetsFlags
	}
	if isa.ReadsFlags(in.Op) {
		f |= cfReadsFlags
	}
	if isa.IsBranch(in.Op) {
		f |= cfBranch
	}
	// cfStaticReduce marks the purely static Decide patterns: zero/one
	// idioms (EOR rr, AND with XZR, MOVZ immediates), baseline move-idiom
	// shapes (reg-form ADD/ORR/EOR with one XZR operand — the only source
	// of moveBlocked), 9-bit MOVZ/MOVN immediates, and BIC #0. Every other
	// row of Decide/table1 requires a Known source operand or known NZCV,
	// so rename may skip the call entirely when a µop has neither the flag
	// nor any dynamic knowledge. Marking all MOVZ/MOVN keeps the predicate
	// a superset: a spurious bit only costs a no-op Decide call.
	switch in.Op {
	case isa.MOVZ, isa.MOVN:
		f |= cfStaticReduce
	case isa.EOR:
		if !in.UseImm && (in.Rn == in.Rm || in.Rn == isa.XZR || in.Rm == isa.XZR) {
			f |= cfStaticReduce
		}
	case isa.AND, isa.ADD, isa.ORR:
		if !in.UseImm && (in.Rn == isa.XZR || in.Rm == isa.XZR) {
			f |= cfStaticReduce
		}
	case isa.BIC:
		if in.UseImm && in.Imm == 0 {
			f |= cfStaticReduce
		}
	}
	return f
}

// dqCap bounds the decode-to-rename µop queue. Package-level because
// trySkip must model decode's "output queue full" no-op condition; it
// lives in config because config.Validate bounds the in-flight window.
const dqCap = config.DecodeQueue

// decode moves instructions from the fetch queue to the µop queue,
// cracking pre/post-index memory operations into two µops.
//
//tvp:hotpath
func (c *Core) decode() {
	for n := 0; n < c.cfg.DecodeWidth && c.fetchQ.len() > 0; n++ {
		e := c.fetchQ.front()
		if e.fetchCycle+uint64(c.cfg.FetchToDecode) > c.cycle {
			break
		}
		ci := c.crack[e.sIdx]
		cnt := 1
		if ci.two {
			cnt = 2
		}
		if c.decodeQ.len()+cnt > dqCap {
			break
		}
		c.fetchQ.popFront()
		d := c.decodeQ.pushSlot()
		d.seq = e.seq
		d.sIdx = e.sIdx
		d.kind = isa.UOpMain
		d.class = ci.class
		d.last = !ci.two
		d.decodeCycle = c.cycle
		if ci.two {
			d = c.decodeQ.pushSlot()
			d.seq = e.seq
			d.sIdx = e.sIdx
			d.kind = isa.UOpBaseUpdate
			d.class = isa.ClassIntALU
			d.last = true
			d.decodeCycle = c.cycle
		}
	}
}

// renameStage renames up to RenameWidth µops: sources through the RAT,
// destinations through DSR idiom elimination, move elimination, 9-bit
// idiom elimination, SpSR, value prediction, or a fresh physical register,
// in that priority order. Renamed µops enter the ROB.
//
//tvp:hotpath
func (c *Core) renameStage() {
	for n := 0; n < c.cfg.RenameWidth && c.decodeQ.len() > 0; n++ {
		// The front pointer stays valid across popFront: the cell is only
		// reused by a push, and decode runs after rename within a step.
		e := c.decodeQ.front()
		if e.decodeCycle+uint64(c.cfg.DecodeToRename) > c.cycle {
			break
		}
		if c.robCnt >= c.cfg.ROBSize {
			c.st.ROBFullStalls++
			break
		}
		// Conservative: one µop can need at most one int and one FP reg.
		if c.ren.FreeInt() < 1 || c.ren.FreeFP() < 1 {
			c.st.PRFEmptyStalls++
			break
		}
		c.decodeQ.popFront()
		idx := int32(c.robTail)
		u := &c.rob[c.robTail]
		if c.robTail++; c.robTail == len(c.rob) {
			c.robTail = 0
		}
		c.robCnt++
		c.dispCnt++
		// A µop entering the ROB ends the post-flush refill window: from
		// here empty-ROB idle slots are no longer the old redirect's fault
		// (CPI-stack classifier, cpistack.go).
		c.redirectCause = redirectNone
		c.renameUop(u, idx, e)
		c.trace(u, StageRename)
	}
}

// renameUop fills one ROB entry.
//
//tvp:hotpath
func (c *Core) renameUop(u *uop, idx int32, e *dqEntry) {
	c.uSeqCtr++
	u.reset(e.seq, e.sIdx, e.kind, e.class, e.last, c.uSeqCtr, c.cycle, idx)
	c.robReady[idx] = neverReady
	in := &c.code[e.sIdx]
	ci := &c.crack[e.sIdx]

	if e.kind == isa.UOpBaseUpdate {
		c.renameBaseUpdate(u, in)
		return
	}

	switch e.class {
	case isa.ClassNop:
		u.state = stDone
		c.robReady[idx] = c.cycle
		return
	case isa.ClassLoad:
		u.isLoad = true
	case isa.ClassStore:
		u.isStore = true
	case isa.ClassBranch:
		u.isBranch = true
	}

	// Source operands through the RAT (before any destination update).
	// Gated on the static need bits: memory and FP µops outside the
	// reduction engine never look at the skipped operand, so the zero
	// Operand is dead.
	var srcN, srcM rename.Operand
	if ci.need&spN != 0 {
		c.ren.SrcIntInto(&srcN, in.Rn)
	}
	if ci.need&spM != 0 {
		c.ren.SrcIntInto(&srcM, in.Rm)
	}

	// Rename-time reduction engine (integer, non-memory µops only). With
	// no static pattern and no dynamic knowledge the call is a provable
	// no-op (KindNone, moveBlocked false) and is skipped.
	if ci.flags&cfDecide != 0 {
		nz, nzSpec, nzKnown := c.ren.NZCV()
		if ci.flags&cfStaticReduce != 0 || srcN.Known || srcM.Known || nzKnown {
			d, moveBlocked := c.engine.Decide(in, &srcN, &srcM, nz, nzSpec, nzKnown)
			u.moveBlocked = moveBlocked
			if d.Kind != rename.KindNone {
				c.applyReduction(u, in, d)
				return
			}
		}
	}

	// Regular renaming of sources for the scheduler (must precede any
	// destination update: MOVK and stores read registers the instruction
	// may also define).
	c.collectSrcs(u, ci.plan, in, &srcN, &srcM)

	// Value prediction (§3.1/§3.2/§6.1): rename the destination to a
	// hardwired register, an inlined value name, or (GVP, wide values) a
	// fresh register written with the prediction.
	c.tryValuePredict(u, in)

	// Flags.
	if ci.flags&cfSetsFlags != 0 {
		u.flagW = true
		c.ren.InvalidateNZCV()
		c.lastFlagWIdx = u.robIdx
		c.lastFlagWSeq = u.uSeq
	}
	if ci.flags&cfReadsFlags != 0 {
		if _, _, known := c.ren.NZCV(); !known {
			u.flagR = true
			if c.lastFlagWIdx != noIdx && c.rob[c.lastFlagWIdx].uSeq == c.lastFlagWSeq {
				u.flagSrcIdx = c.lastFlagWIdx
				u.flagSrcUSeq = c.lastFlagWSeq
			}
		}
	}

	// Destination (unless value prediction already renamed it).
	if !u.vpUsed {
		c.renameDest(u, in)
	}

	// Memory dependence prediction and queue bookkeeping.
	// Note: LFST entries can be stale after a flush (a squashed store's
	// registration survives and the refetched instance re-registers), so
	// a dependence is honored only when it names a strictly older store.
	// The effective address is the one per-µop dynamic fact rename needs;
	// it is re-read from the run-ahead ring, which holds the record until
	// the instruction commits.
	if u.isLoad {
		u.ea = c.ra.at(e.seq).d.EA
		u.memSize = in.Size
		if seq, ok := c.ssets.RenameLoad(ci.pc); ok && seq < u.seq {
			u.memDepSeq = seq + 1
		}
	}
	if u.isStore {
		u.ea = c.ra.at(e.seq).d.EA
		u.memSize = in.Size
		if prev, ok := c.ssets.RenameStore(ci.pc, e.seq); ok && prev < u.seq {
			u.memDepSeq = prev + 1
		}
	}
}

// renameBaseUpdate renames the address-increment µop of a pre/post-index
// access: it reads the old base and writes a fresh physical register.
//
//tvp:hotpath
func (c *Core) renameBaseUpdate(u *uop, in *isa.Inst) {
	base := c.ren.SrcInt(in.Rn)
	if !base.Known {
		u.srcs[u.nsrc] = srcOperand{name: base.Name}
		u.nsrc++
	}
	p := c.ren.AllocInt()
	c.intReadyAt[p] = neverReady
	c.ren.DefInt(in.Rn, p, true, false)
	u.hasDst = true
	u.freshDst = true
	u.dst = p
	u.dstArch = in.Rn
	u.dstWide = true
}

// applyReduction retires a rename-time reduction: the µop completes at
// rename, never dispatching to the IQ (§4.1).
//
//tvp:hotpath
func (c *Core) applyReduction(u *uop, in *isa.Inst, d rename.Decision) {
	u.eliminated = true
	u.elimKind = d.Kind
	u.elimOrigin = d.Origin
	u.state = stDone
	c.robReady[u.robIdx] = c.cycle

	switch d.Kind {
	case rename.KindZero:
		c.defShared(u, in.Rd, rename.HardZero, d.Spec)
	case rename.KindOne:
		c.defShared(u, in.Rd, rename.HardOne, d.Spec)
	case rename.KindValue:
		c.defShared(u, in.Rd, rename.ValueName(d.Value), d.Spec)
	case rename.KindMove:
		wide := d.MoveOp.Wide && !in.W
		if in.Rd != isa.XZR {
			c.ren.DefIntShared(in.Rd, d.MoveOp.Name, wide, d.Spec)
			u.hasDst = true
			u.dst = d.MoveOp.Name
			u.dstArch = in.Rd
			u.dstWide = wide
			u.dstSpec = d.Spec
		}
	case rename.KindNop:
		// Flag-only side effects, carried by the frontend NZCV.
	case rename.KindBranch:
		u.resolvedEarly = true
		// An SpSR-resolved branch resolves at rename: if fetch was
		// stalled on it, redirect now (§4.2: "conditional branches can
		// be resolved early").
		if c.waitBranchSeq == u.seq+1 {
			c.waitBranchSeq = 0
			c.fetchStallUntil = maxu(c.fetchStallUntil, c.cycle+redirectPenalty)
		}
	}
	if d.SetsNZCV {
		c.ren.SetNZCV(d.NZCV, d.Spec)
	}
}

//tvp:hotpath
func (c *Core) defShared(u *uop, rd isa.Reg, n rename.Name, spec bool) {
	if rd == isa.XZR {
		return
	}
	c.ren.DefIntShared(rd, n, false, spec)
	u.hasDst = true
	u.dst = n
	u.dstArch = rd
	u.dstSpec = spec
}

// tryValuePredict applies the VP rename policy for a confident prediction
// (§3.1/§3.2). The instruction still dispatches and executes so the
// prediction can be validated in place at the functional unit (§3.3).
//
//tvp:hotpath
func (c *Core) tryValuePredict(u *uop, in *isa.Inst) {
	if c.vpred == nil || !in.VPEligible() {
		return
	}
	s := c.ra.at(u.seq)
	if !s.vp.Confident {
		return
	}
	v := s.vpValue
	mode := c.vpred.Mode()
	if mode != config.GVP && !c.vpred.Representable(v) {
		return
	}
	if c.vpred.Silenced(c.cycle) {
		c.st.VPSilenced++
		return
	}
	if c.bugArmed {
		// One-shot fault injection (injectVPBug): corrupt the ring entry
		// itself so a refetch after a flush replays the same corruption.
		c.bugArmed = false
		c.bugSeqPlus1 = u.seq + 1
		s.vpValue ^= c.bugMask
		v ^= c.bugMask
	}
	u.vpUsed = true
	switch {
	case v == 0:
		c.defShared(u, in.Rd, rename.HardZero, true)
	case v == 1:
		c.defShared(u, in.Rd, rename.HardOne, true)
	case mode != config.MVP && int64(v) >= -256 && int64(v) <= 255:
		c.defShared(u, in.Rd, rename.ValueName(int64(v)), true)
	default:
		// GVP wide prediction: allocate a register and write the
		// prediction to the PRF at rename (§6.1); dependents wake
		// immediately.
		reg := c.ren.AllocInt()
		c.ren.DefInt(in.Rd, reg, !in.W, true)
		c.intReadyAt[reg] = c.cycle + 1
		u.hasDst = true
		u.freshDst = true
		u.dst = reg
		u.dstArch = in.Rd
		u.dstWide = !in.W
		u.dstSpec = true
		u.vpWide = true
		c.predictedReg[reg] = u.robIdx
		c.st.VPWidePRFWrites++
		c.st.IntPRFWrites++
	}
}

// collectSrcs gathers the physical-register sources a µop must wait for
// (known value names, hardwired registers, and XZR never wait and never
// read the PRF). The obstacle set and order come from the static source
// plan; the bit order of sp* is collection order, so testing the bits
// low-to-high reproduces the old opcode switch exactly.
//
//tvp:hotpath
func (c *Core) collectSrcs(u *uop, plan uint8, in *isa.Inst, srcN, srcM *rename.Operand) {
	if plan&spN != 0 && !srcN.Known {
		u.srcs[u.nsrc] = srcOperand{name: srcN.Name}
		u.nsrc++
	}
	if plan&spM != 0 && !srcM.Known {
		u.srcs[u.nsrc] = srcOperand{name: srcM.Name}
		u.nsrc++
	}
	if plan&spRdInt != 0 {
		if op := c.ren.SrcInt(in.Rd); !op.Known {
			u.srcs[u.nsrc] = srcOperand{name: op.Name}
			u.nsrc++
		}
	}
	if plan >= spFPn { // any FP source bit set
		if plan&spFPn != 0 {
			u.srcs[u.nsrc] = srcOperand{name: c.ren.SrcFP(in.Rn), fp: true}
			u.nsrc++
		}
		if plan&spFPm != 0 {
			u.srcs[u.nsrc] = srcOperand{name: c.ren.SrcFP(in.Rm), fp: true}
			u.nsrc++
		}
		if plan&spFPa != 0 {
			u.srcs[u.nsrc] = srcOperand{name: c.ren.SrcFP(in.Ra), fp: true}
			u.nsrc++
		}
		if plan&spFPd != 0 {
			u.srcs[u.nsrc] = srcOperand{name: c.ren.SrcFP(in.Rd), fp: true}
			u.nsrc++
		}
	}
}

// renameDest allocates a fresh physical destination for a non-eliminated,
// non-value-predicted µop.
//
//tvp:hotpath
func (c *Core) renameDest(u *uop, in *isa.Inst) {
	if isa.IsFP(in.Op) {
		p := c.ren.AllocFP()
		c.fpReadyAt[p] = neverReady
		c.ren.DefFP(in.Rd, p)
		u.hasDst = true
		u.freshDst = true
		u.dstFP = true
		u.dst = p
		u.dstArch = in.Rd
		return
	}
	var rd isa.Reg
	switch {
	case in.Op == isa.BL:
		rd = isa.LR
	case in.Op == isa.STR || in.Op == isa.FSTR:
		return // base updates are handled by the BaseUpdate µop
	case in.WritesGPR():
		rd = in.Rd
	default:
		return
	}
	if rd == isa.XZR {
		return
	}
	p := c.ren.AllocInt()
	c.intReadyAt[p] = neverReady
	c.ren.DefInt(rd, p, !in.W, false)
	u.hasDst = true
	u.freshDst = true
	u.dst = p
	u.dstArch = rd
	u.dstWide = !in.W
}

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
