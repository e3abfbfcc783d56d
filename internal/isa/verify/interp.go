package verify

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/prog"
)

// edge is one feasible CFG successor discovered by the transfer
// function, with the (possibly branch-refined) state flowing along it
// and the call-string context it flows in.
type edge struct {
	to  int
	ctx int
	st  *state
}

// transfer interprets instruction i over st, mutating st in place and
// returning the feasible out-edges. It mirrors emu.Step exactly: every
// abstract operation over-approximates the corresponding concrete one.
func (v *verifier) transfer(i int, st *state) []edge {
	in := &v.p.Code[i]
	w := in.W

	switch in.Op {
	case isa.NOP:

	case isa.HALT:
		v.haltSeen = true
		return nil

	case isa.ADD, isa.SUB, isa.AND, isa.ANDS, isa.ORR, isa.EOR, isa.BIC,
		isa.LSL, isa.LSR, isa.ASR:
		a := v.readReg(i, st, in.Rn, w)
		b := v.op2(i, st, in)
		var r AbsVal
		switch in.Op {
		case isa.ADD:
			r = absAdd(a, b)
		case isa.SUB:
			r = absSub(a, b)
		case isa.AND, isa.ANDS:
			r = absAnd(a, b)
		case isa.ORR:
			r = absOr(a, b)
		case isa.EOR:
			r = absXor(a, b)
		case isa.BIC:
			r = absBic(a, b)
		case isa.LSL:
			r = absShift(a, b, func(x uint64, s uint) uint64 { return x << s }, absLslBy)
		case isa.LSR:
			r = absShift(a, b, func(x uint64, s uint) uint64 { return x >> s }, absLsrBy)
		case isa.ASR:
			if w {
				r = absShift(a, b, func(x uint64, s uint) uint64 {
					return uint64(int32(uint32(x)) >> s)
				}, func(a AbsVal, s uint) AbsVal {
					// W-form ASR sign-extends from bit 31 into the low
					// 32-bit result; the final trunc32 keeps it exact
					// only via the pairwise path, so stay conservative.
					if r, ok := mapSet(a, func(x uint64) uint64 { return uint64(int32(uint32(x)) >> s) }); ok {
						return r
					}
					return top()
				})
			} else {
				r = absShift(a, b, func(x uint64, s uint) uint64 { return uint64(int64(x) >> s) }, absAsrBy)
			}
		}
		if in.Op == isa.ANDS {
			st.cmp.valid = false
		}
		v.writeReg(st, in.Rd, r, w)

	case isa.ADDS:
		a := v.readReg(i, st, in.Rn, w)
		b := v.op2(i, st, in)
		st.cmp.valid = false
		v.writeReg(st, in.Rd, absAdd(a, b), w)

	case isa.SUBS:
		a := v.readReg(i, st, in.Rn, w)
		b := v.op2(i, st, in)
		st.cmp = cmpTag{valid: true, w: w, inst: i, reg: in.Rn, rhs: b}
		// writeReg invalidates the tag again if Rd aliases Rn, in which
		// case the compared value no longer lives in any register.
		v.writeReg(st, in.Rd, absSub(a, b), w)
		if in.Rd == in.Rn && in.Rd != isa.XZR {
			// The compared value was overwritten by the result, but the
			// flags still describe it through rd = rn - rhs: Z is set iff
			// rd == 0, so EQ/NE branches can refine the result register.
			// (Only EQ/NE: carry/borrow conditions speak about rn vs rhs,
			// not about the result vs zero.)
			st.cmp = cmpTag{valid: true, w: w, inst: i, reg: in.Rd, rhs: exact(0), eqOnly: true}
		}

	case isa.UBFM:
		a := v.readReg(i, st, in.Rn, w)
		r := absLsrBy(a, uint(in.Imm&63))
		if width := uint(in.Imm2 + 1); width < 64 {
			r = absAnd(r, exact(onesLow(width)))
		}
		v.writeReg(st, in.Rd, r, w)

	case isa.RBIT:
		a := v.readReg(i, st, in.Rn, w)
		v.writeReg(st, in.Rd, absRbit(a, w), w)

	case isa.MUL:
		a := v.readReg(i, st, in.Rn, w)
		b := v.readReg(i, st, in.Rm, w)
		v.writeReg(st, in.Rd, absMul(a, b), w)

	case isa.SDIV:
		a := v.readReg(i, st, in.Rn, w)
		b := v.readReg(i, st, in.Rm, w)
		if w {
			// 32-bit sdiv cannot overflow in 64-bit arithmetic; model
			// it pairwise over the sign-extended operands.
			r, ok := pairwise(a, b, func(x, y uint64) uint64 {
				nv, dv := int64(int32(uint32(x))), int64(int32(uint32(y)))
				if dv == 0 {
					return 0
				}
				return uint64(nv / dv)
			})
			if !ok {
				r = top()
			}
			v.writeReg(st, in.Rd, r, w)
		} else {
			v.writeReg(st, in.Rd, absSdiv(a, b), w)
		}

	case isa.UDIV:
		a := v.readReg(i, st, in.Rn, w)
		b := v.readReg(i, st, in.Rm, w)
		v.writeReg(st, in.Rd, absUdiv(a, b), w)

	case isa.MOVZ:
		v.writeReg(st, in.Rd, exact(uint64(uint16(in.Imm))<<(16*uint(in.Imm2))), w)
	case isa.MOVN:
		v.writeReg(st, in.Rd, exact(^(uint64(uint16(in.Imm)) << (16 * uint(in.Imm2)))), w)
	case isa.MOVK:
		old := v.readReg(i, st, in.Rd, false) // MOVK reads Rd at full width
		sh := 16 * uint(in.Imm2)
		var mask, chunk uint64
		if sh < 64 {
			mask = uint64(0xffff) << sh
			chunk = uint64(uint16(in.Imm)) << sh
		}
		v.writeReg(st, in.Rd, absOr(absBic(old, exact(mask)), exact(chunk)), w)

	case isa.CSEL:
		a := v.readReg(i, st, in.Rn, w)
		b := v.readReg(i, st, in.Rm, w)
		v.writeReg(st, in.Rd, a.join(b), w)
	case isa.CSINC:
		a := v.readReg(i, st, in.Rn, w)
		b := v.readReg(i, st, in.Rm, w)
		v.writeReg(st, in.Rd, a.join(absAdd(b, exact(1))), w)
	case isa.CSNEG:
		a := v.readReg(i, st, in.Rn, w)
		b := v.readReg(i, st, in.Rm, w)
		v.writeReg(st, in.Rd, a.join(absSub(exact(0), b)), w)

	case isa.LDR:
		ea, wb, hasWB := v.absEA(i, st, in)
		size := in.Size
		val := sizeTop(size)
		if v.checkMem(i, in, ea, size, false) {
			val = v.mem.load(ea, size)
		}
		v.writeReg(st, in.Rd, val, w)
		if hasWB {
			st.set(in.Rn, wb)
		}

	case isa.STR:
		data := v.readReg(i, st, in.Rd, w)
		ea, wb, hasWB := v.absEA(i, st, in)
		if v.checkMem(i, in, ea, in.Size, true) {
			v.mem.store(ea, in.Size, data)
		} else {
			// Unprovable store: smear so no later load under-reads.
			v.mem.store(top(), in.Size, top())
		}
		if hasWB {
			st.set(in.Rn, wb)
		}

	case isa.FLDR:
		ea, wb, hasWB := v.absEA(i, st, in)
		v.checkMem(i, in, ea, 8, false) // FLDR always reads 8 bytes
		st.fdef |= 1 << uint(in.Rd)
		if hasWB {
			st.set(in.Rn, wb)
		}

	case isa.FSTR:
		v.useFP(i, st, in.Rd)
		ea, wb, hasWB := v.absEA(i, st, in)
		if v.checkMem(i, in, ea, 8, true) { // FSTR always writes 8 bytes
			v.mem.store(ea, 8, top())
		} else {
			v.mem.store(top(), 8, top())
		}
		if hasWB {
			st.set(in.Rn, wb)
		}

	case isa.B:
		return v.directEdge(i, st, in.Target)

	case isa.BCOND:
		if in.Cond == isa.AL {
			return v.directEdge(i, st, in.Target)
		}
		var out []edge
		taken := st.clone()
		if refineCmp(taken, in.Cond) {
			out = append(out, v.direct(i, taken, in.Target)...)
		}
		fall := st
		if refineCmp(fall, in.Cond.Invert()) {
			out = append(out, v.fallthroughEdge(i, fall)...)
		}
		return out

	case isa.CBZ, isa.CBNZ:
		cur := v.readReg(i, st, in.Rn, false)
		zero, nonzero, ok := splitZero(cur, w)
		var out []edge
		takenVal, fallVal := zero, nonzero
		if in.Op == isa.CBNZ {
			takenVal, fallVal = nonzero, zero
		}
		if ok && takenVal.isEmpty() {
			// branch provably not taken
		} else {
			taken := st.clone()
			if ok {
				taken.setRefined(in.Rn, takenVal)
			}
			out = append(out, v.direct(i, taken, in.Target)...)
		}
		if ok && fallVal.isEmpty() {
			// fallthrough provably impossible
		} else {
			if ok {
				st.setRefined(in.Rn, fallVal)
			}
			out = append(out, v.fallthroughEdge(i, st)...)
		}
		return out

	case isa.TBZ, isa.TBNZ:
		cur := v.readReg(i, st, in.Rn, false)
		bit := uint(in.Imm) & 63
		clear, set, ok := splitBit(cur, bit)
		takenVal, fallVal := clear, set
		if in.Op == isa.TBNZ {
			takenVal, fallVal = set, clear
		}
		var out []edge
		if !(ok && takenVal.isEmpty()) {
			taken := st.clone()
			if ok {
				taken.setRefined(in.Rn, takenVal)
			}
			out = append(out, v.direct(i, taken, in.Target)...)
		}
		if !(ok && fallVal.isEmpty()) {
			if ok {
				st.setRefined(in.Rn, fallVal)
			}
			out = append(out, v.fallthroughEdge(i, st)...)
		}
		return out

	case isa.BL:
		st.set(isa.LR, exact(prog.PC(i+1)))
		if in.Target < 0 || in.Target >= v.n {
			return nil // structural pre-pass already reported it
		}
		// Push the call site: the callee is analyzed in its own context,
		// so states from distinct call sites never merge inside it.
		return []edge{{to: in.Target, ctx: v.pushCtx(v.curCtx, i), st: st}}

	case isa.RET, isa.BR:
		target := v.readReg(i, st, in.Rn, false)
		cands, ok := target.candidates(pairCap)
		if !ok {
			v.addDiag("indirect", Error, i,
				fmt.Sprintf("cannot resolve indirect branch through %s (abstract target [%#x, %#x], %d known bits)",
					in.Rn, target.lo, target.hi, popcount(target.known)))
			return nil
		}
		var out []edge
		for _, pc := range cands {
			idx := prog.Index(pc, v.n)
			if idx < 0 {
				v.addDiag("indirect", Error, i,
					fmt.Sprintf("indirect branch may target %#x, outside the text section", pc))
				continue
			}
			ctx := v.curCtx
			if in.Op == isa.RET {
				ctx = v.retCtx(ctx, idx)
			}
			out = append(out, edge{to: idx, ctx: ctx, st: st})
		}
		return out

	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
		v.useFP(i, st, in.Rn)
		v.useFP(i, st, in.Rm)
		st.fdef |= 1 << uint(in.Rd)
	case isa.FMADD:
		v.useFP(i, st, in.Rn)
		v.useFP(i, st, in.Rm)
		v.useFP(i, st, in.Ra)
		st.fdef |= 1 << uint(in.Rd)
	case isa.FNEG, isa.FABS, isa.FMOV:
		v.useFP(i, st, in.Rn)
		st.fdef |= 1 << uint(in.Rd)
	case isa.SCVTF:
		v.readReg(i, st, in.Rn, false)
		st.fdef |= 1 << uint(in.Rd)
	case isa.FCVTZS:
		v.useFP(i, st, in.Rn)
		v.writeReg(st, in.Rd, top(), w)
	case isa.FCMP:
		v.useFP(i, st, in.Rn)
		v.useFP(i, st, in.Rm)
		st.cmp.valid = false

	default:
		v.addDiag("struct", Error, i, fmt.Sprintf("unknown opcode %d", uint8(in.Op)))
		return nil
	}

	return v.fallthroughEdge(i, st)
}

// readReg reads a register value with emulator W semantics, recording a
// def-before-use diagnostic if no path has written it yet.
func (v *verifier) readReg(i int, st *state, r isa.Reg, w bool) AbsVal {
	if r != isa.XZR && !st.defined(r) {
		v.addDiag("defuse", Warn, i, fmt.Sprintf("%s read before any definition (reads as zero at reset)", r))
	}
	val := st.get(r)
	if w {
		val = val.trunc32()
	}
	return val
}

func (v *verifier) useFP(i int, st *state, r isa.Reg) {
	if !st.fdefined(r) {
		v.addDiag("defuse", Warn, i, fmt.Sprintf("d%d read before any definition (reads as zero at reset)", int(r)))
	}
}

// writeReg stores a result with emulator W semantics (zero-extended
// 32-bit truncation).
func (v *verifier) writeReg(st *state, r isa.Reg, val AbsVal, w bool) {
	if w {
		val = val.trunc32()
	}
	st.set(r, val)
}

// setRefined narrows a register on a branch edge without touching the
// def bitmap or compare tag (the value is the same object, just better
// known).
func (s *state) setRefined(r isa.Reg, val AbsVal) {
	if r == isa.XZR {
		return
	}
	s.regs[r] = val
}

func (v *verifier) op2(i int, st *state, in *isa.Inst) AbsVal {
	if in.UseImm {
		val := exact(uint64(in.Imm))
		if in.W {
			val = val.trunc32()
		}
		return val
	}
	return v.readReg(i, st, in.Rm, in.W)
}

// absEA mirrors emu.ea: effective address plus the base writeback value
// for pre/post-indexed modes.
func (v *verifier) absEA(i int, st *state, in *isa.Inst) (ea, wb AbsVal, hasWB bool) {
	base := v.readReg(i, st, in.Rn, false)
	switch in.Mode {
	case isa.AddrOff:
		return absAdd(base, exact(uint64(in.Imm))), AbsVal{}, false
	case isa.AddrReg:
		idx := v.readReg(i, st, in.Rm, false)
		return absAdd(base, absLslBy(idx, uint(in.Imm2))), AbsVal{}, false
	case isa.AddrPre:
		nb := absAdd(base, exact(uint64(in.Imm)))
		return nb, nb, true
	case isa.AddrPost:
		return base, absAdd(base, exact(uint64(in.Imm))), true
	}
	v.addDiag("struct", Error, i, fmt.Sprintf("bad addressing mode %d", in.Mode))
	return top(), AbsVal{}, false
}

// checkMem verifies the memory-safety obligations of one access: the
// whole footprint [lo, hi+size) provably inside the data window or the
// stack window, and for stores additionally disjoint from text (no
// self-modifying code). Returns false when the access is unprovable, in
// which case the caller treats the result/summary conservatively.
func (v *verifier) checkMem(i int, in *isa.Inst, ea AbsVal, size uint8, isStore bool) bool {
	if size != 1 && size != 2 && size != 4 && size != 8 {
		v.addDiag("struct", Error, i, fmt.Sprintf("memory access size %d (want 1/2/4/8)", size))
		return false
	}
	lo := ea.lo
	hi := ea.hi + uint64(size)
	if hi < ea.hi { // footprint wraps the address space
		v.addDiag("bounds", Error, i, "cannot bound effective address (wraps the address space)")
		return false
	}
	if isStore && v.mem.text.overlaps(lo, hi) {
		v.addDiag("selfmod", Error, i,
			fmt.Sprintf("store may target the text section (EA in [%#x, %#x))", lo, hi))
		return false
	}
	inData := lo >= v.mem.data.lo && hi <= v.mem.data.hi
	inStack := lo >= v.mem.stack.lo && hi <= v.mem.stack.hi
	if !inData && !inStack {
		what := "load"
		if isStore {
			what = "store"
		}
		v.addDiag("bounds", Error, i,
			fmt.Sprintf("%s EA not provably in data [%#x, %#x) or stack [%#x, %#x) windows: abstract EA [%#x, %#x)",
				what, v.mem.data.lo, v.mem.data.hi, v.mem.stack.lo, v.mem.stack.hi, lo, hi))
		return false
	}
	return true
}

// direct returns the edge to a direct branch target, dropping it (the
// structural pre-pass already reported it) when out of range.
func (v *verifier) direct(i int, st *state, target int) []edge {
	if target < 0 || target >= v.n {
		return nil
	}
	return []edge{{to: target, ctx: v.curCtx, st: st}}
}

func (v *verifier) directEdge(i int, st *state, target int) []edge {
	return v.direct(i, st, target)
}

// fallthroughEdge returns the implicit successor i+1, reporting a
// fall-off-the-end when there is none.
func (v *verifier) fallthroughEdge(i int, st *state) []edge {
	if i+1 >= v.n {
		v.addDiag("fallthrough", Error, i, "control can fall through past the last instruction")
		return nil
	}
	return []edge{{to: i + 1, ctx: v.curCtx, st: st}}
}

// refineCmp narrows the register compared by the live SUBS tag along a
// BCOND edge. Returns false when the edge is infeasible. Only the
// unsigned conditions refine; signed/overflow conditions pass through.
func refineCmp(st *state, c isa.Cond) bool {
	if !st.cmp.valid || st.cmp.w {
		return true
	}
	if st.cmp.eqOnly && c != isa.EQ && c != isa.NE {
		return true // the tag only knows result-vs-zero equality
	}
	reg := st.cmp.reg
	cur := st.get(reg)
	rhs := st.cmp.rhs
	var refined AbsVal
	switch c {
	case isa.EQ:
		refined = intersect(cur, rhs)
	case isa.NE:
		val, ok := rhs.isExact()
		if !ok {
			return true
		}
		refined = removeVal(cur, val)
	case isa.CS: // lhs >= rhs for some rhs value
		refined = clampLo(cur, rhs.lo)
	case isa.CC: // lhs < rhs
		if rhs.hi == 0 {
			return false
		}
		refined = clampHi(cur, rhs.hi-1)
	case isa.HI: // lhs > rhs
		if rhs.lo == ^uint64(0) {
			return false
		}
		refined = clampLo(cur, rhs.lo+1)
	case isa.LS: // lhs <= rhs
		refined = clampHi(cur, rhs.hi)
	default:
		return true
	}
	if refined.isEmpty() {
		return false
	}
	st.setRefined(reg, refined)
	return true
}

// splitZero partitions a value into its zero and nonzero projections
// under CBZ/CBNZ comparison width. ok is false when the split cannot
// be represented (W-form with unconstrained low bits).
func splitZero(cur AbsVal, w bool) (zero, nonzero AbsVal, ok bool) {
	if !w {
		return intersect(cur, exact(0)), removeVal(cur, 0), true
	}
	// W form compares the low 32 bits only.
	low32Zero := AbsVal{lo: 0, hi: hi32Mask, known: onesLow(32), bits: 0}.tighten()
	zero = intersect(cur, low32Zero)
	// "low 32 bits nonzero" is not representable in the domain; leave
	// the fallthrough value unrefined.
	return zero, cur, true
}

// splitBit partitions a value by one bit's concrete value.
func splitBit(cur AbsVal, bit uint) (clear, set AbsVal, ok bool) {
	mask := uint64(1) << bit
	clearPat := AbsVal{lo: 0, hi: ^uint64(0) &^ mask, known: mask, bits: 0}
	setPat := AbsVal{lo: mask, hi: ^uint64(0), known: mask, bits: mask}
	return intersect(cur, clearPat), intersect(cur, setPat), true
}

// intersect meets two abstractions; result may be empty (infeasible).
func intersect(a, b AbsVal) AbsVal {
	if a.set != nil {
		out := make([]uint64, 0, len(a.set))
		for _, v := range a.set {
			if b.contains(v) {
				out = append(out, v)
			}
		}
		return fromSet(out)
	}
	if b.set != nil {
		out := make([]uint64, 0, len(b.set))
		for _, v := range b.set {
			if a.contains(v) {
				out = append(out, v)
			}
		}
		return fromSet(out)
	}
	if (a.known&b.known)&(a.bits^b.bits) != 0 {
		return fromSet(nil) // commonly-known bits disagree
	}
	out := AbsVal{
		lo:    maxU64(a.lo, b.lo),
		hi:    minU64(a.hi, b.hi),
		known: a.known | b.known,
	}
	out.bits = (a.bits | b.bits) & out.known
	if out.lo > out.hi {
		return fromSet(nil)
	}
	return out.tighten()
}

func removeVal(a AbsVal, v uint64) AbsVal {
	if a.set != nil {
		out := make([]uint64, 0, len(a.set))
		for _, x := range a.set {
			if x != v {
				out = append(out, x)
			}
		}
		return fromSet(out)
	}
	if a.lo == a.hi && a.lo == v {
		return fromSet(nil)
	}
	if a.lo == v {
		a.lo++
	} else if a.hi == v {
		a.hi--
	}
	return a.tighten()
}

func clampLo(a AbsVal, m uint64) AbsVal {
	if a.set != nil {
		out := make([]uint64, 0, len(a.set))
		for _, x := range a.set {
			if x >= m {
				out = append(out, x)
			}
		}
		return fromSet(out)
	}
	if m > a.lo {
		a.lo = m
	}
	if a.lo > a.hi {
		return fromSet(nil)
	}
	return a.tighten()
}

func clampHi(a AbsVal, m uint64) AbsVal {
	if a.set != nil {
		out := make([]uint64, 0, len(a.set))
		for _, x := range a.set {
			if x <= m {
				out = append(out, x)
			}
		}
		return fromSet(out)
	}
	if m < a.hi {
		a.hi = m
	}
	if a.lo > a.hi {
		return fromSet(nil)
	}
	return a.tighten()
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}
