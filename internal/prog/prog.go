// Package prog provides an assembler-like builder for constructing programs
// in the simulator's micro-ISA, plus the Program container the emulator
// loads. The synthetic workload suite (internal/workload) is written
// entirely against this builder.
package prog

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// TextBase is the virtual address at which program text is loaded. Each
// instruction occupies 4 bytes, so instruction index i has PC
// TextBase + 4*i.
const TextBase uint64 = 0x0000_0000_0040_0000

// DataBase is the virtual address at which the builder starts allocating
// static data.
const DataBase uint64 = 0x0000_0000_1000_0000

// StackTop is the initial stack pointer handed to programs in X29 by the
// emulator (stacks grow down).
const StackTop uint64 = 0x0000_0000_7ff0_0000

// Segment is a contiguous initialized region of memory.
type Segment struct {
	Base  uint64
	Bytes []byte
}

// Program is a loadable unit: code, initialized data, and metadata.
type Program struct {
	Name string
	Code []isa.Inst
	Data []Segment
}

// PC returns the byte address of instruction index i.
func PC(i int) uint64 { return TextBase + uint64(i)*4 }

// Index returns the instruction index of byte address pc, or -1 if pc is
// outside the text segment of a program with n instructions.
func Index(pc uint64, n int) int {
	if pc < TextBase || pc&3 != 0 {
		return -1
	}
	i := int((pc - TextBase) / 4)
	if i >= n {
		return -1
	}
	return i
}

// Label identifies a branch target within a Builder. Labels are created
// with NewLabel and attached to a code position with Bind; forward
// references are resolved at Build time.
type Label int

// Builder incrementally constructs a Program.
type Builder struct {
	name     string
	code     []isa.Inst
	labels   []int // label -> instruction index, -1 if unbound
	patches  []patch
	dpatches []dataPatch
	data     []Segment
	brk      uint64 // next free static data address
}

type patch struct {
	inst  int
	label Label
}

type dataPatch struct {
	addr  uint64
	label Label
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, brk: DataBase}
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.code) }

// NewLabel allocates an unbound label.
func (b *Builder) NewLabel() Label {
	b.labels = append(b.labels, -1)
	return Label(len(b.labels) - 1)
}

// Bind attaches the label to the current code position. A label may be
// bound only once.
func (b *Builder) Bind(l Label) {
	if b.labels[l] != -1 {
		panic(fmt.Sprintf("prog: label %d bound twice", l))
	}
	b.labels[l] = len(b.code)
}

// Here returns a label bound to the current position (for backward
// branches).
func (b *Builder) Here() Label {
	l := b.NewLabel()
	b.Bind(l)
	return l
}

// Emit appends a raw instruction and returns its index.
func (b *Builder) Emit(in isa.Inst) int {
	b.code = append(b.code, in)
	return len(b.code) - 1
}

func (b *Builder) emitBranch(in isa.Inst, l Label) int {
	idx := b.Emit(in)
	b.patches = append(b.patches, patch{inst: idx, label: l})
	return idx
}

// Alloc reserves size bytes of zero-initialized static data aligned to
// align (a power of two) and returns the base address.
func (b *Builder) Alloc(size, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	b.brk = (b.brk + align - 1) &^ (align - 1)
	base := b.brk
	b.brk += size
	b.data = append(b.data, Segment{Base: base, Bytes: make([]byte, size)})
	return base
}

// AllocWords reserves n 8-byte words initialized from vals (remaining
// words are zero) and returns the base address.
func (b *Builder) AllocWords(n int, vals ...uint64) uint64 {
	base := b.Alloc(uint64(n)*8, 8)
	seg := &b.data[len(b.data)-1]
	for i, v := range vals {
		if i >= n {
			break
		}
		binary.LittleEndian.PutUint64(seg.Bytes[i*8:], v)
	}
	return base
}

// SetWord stores a 64-bit value into previously allocated static data.
func (b *Builder) SetWord(addr uint64, v uint64) {
	for i := range b.data {
		s := &b.data[i]
		if addr >= s.Base && addr+8 <= s.Base+uint64(len(s.Bytes)) {
			binary.LittleEndian.PutUint64(s.Bytes[addr-s.Base:], v)
			return
		}
	}
	panic(fmt.Sprintf("prog: SetWord outside allocated data: %#x", addr))
}

// SetWordLabel stores the byte PC of a label into static data at Build
// time (for jump tables driving indirect branches).
func (b *Builder) SetWordLabel(addr uint64, l Label) {
	b.dpatches = append(b.dpatches, dataPatch{addr: addr, label: l})
}

// Build resolves all branch targets and returns the finished Program.
// It panics on unbound labels, which indicates a bug in the generator.
func (b *Builder) Build() *Program {
	for _, p := range b.dpatches {
		tgt := b.labels[p.label]
		if tgt == -1 {
			panic(fmt.Sprintf("prog: unbound label %d referenced by data patch", p.label))
		}
		b.SetWord(p.addr, PC(tgt))
	}
	for _, p := range b.patches {
		tgt := b.labels[p.label]
		if tgt == -1 {
			panic(fmt.Sprintf("prog: unbound label %d referenced by inst %d", p.label, p.inst))
		}
		b.code[p.inst].Target = tgt
	}
	if len(b.code) == 0 || b.code[len(b.code)-1].Op != isa.HALT {
		b.code = append(b.code, isa.Inst{Op: isa.HALT})
	}
	return &Program{Name: b.name, Code: b.code, Data: b.data}
}

// ---- Integer ALU helpers ----

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.NOP}) }

func (b *Builder) alu3(op isa.Op, rd, rn, rm isa.Reg) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rn: rn, Rm: rm})
}

func (b *Builder) aluImm(op isa.Op, rd, rn isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rn: rn, Imm: imm, UseImm: true})
}

// Add emits add rd, rn, rm.
func (b *Builder) Add(rd, rn, rm isa.Reg) { b.alu3(isa.ADD, rd, rn, rm) }

// AddI emits add rd, rn, #imm.
func (b *Builder) AddI(rd, rn isa.Reg, imm int64) { b.aluImm(isa.ADD, rd, rn, imm) }

// Sub emits sub rd, rn, rm.
func (b *Builder) Sub(rd, rn, rm isa.Reg) { b.alu3(isa.SUB, rd, rn, rm) }

// SubI emits sub rd, rn, #imm.
func (b *Builder) SubI(rd, rn isa.Reg, imm int64) { b.aluImm(isa.SUB, rd, rn, imm) }

// Subs emits subs rd, rn, rm.
func (b *Builder) Subs(rd, rn, rm isa.Reg) { b.alu3(isa.SUBS, rd, rn, rm) }

// SubsI emits subs rd, rn, #imm.
func (b *Builder) SubsI(rd, rn isa.Reg, imm int64) { b.aluImm(isa.SUBS, rd, rn, imm) }

// Cmp emits cmp rn, rm (subs xzr, rn, rm).
func (b *Builder) Cmp(rn, rm isa.Reg) { b.alu3(isa.SUBS, isa.XZR, rn, rm) }

// CmpI emits cmp rn, #imm.
func (b *Builder) CmpI(rn isa.Reg, imm int64) { b.aluImm(isa.SUBS, isa.XZR, rn, imm) }

// And emits and rd, rn, rm.
func (b *Builder) And(rd, rn, rm isa.Reg) { b.alu3(isa.AND, rd, rn, rm) }

// AndI emits and rd, rn, #imm.
func (b *Builder) AndI(rd, rn isa.Reg, imm int64) { b.aluImm(isa.AND, rd, rn, imm) }

// Ands emits ands rd, rn, rm.
func (b *Builder) Ands(rd, rn, rm isa.Reg) { b.alu3(isa.ANDS, rd, rn, rm) }

// Tst emits tst rn, rm (ands xzr, rn, rm).
func (b *Builder) Tst(rn, rm isa.Reg) { b.alu3(isa.ANDS, isa.XZR, rn, rm) }

// TstI emits tst rn, #imm.
func (b *Builder) TstI(rn isa.Reg, imm int64) { b.aluImm(isa.ANDS, isa.XZR, rn, imm) }

// Orr emits orr rd, rn, rm.
func (b *Builder) Orr(rd, rn, rm isa.Reg) { b.alu3(isa.ORR, rd, rn, rm) }

// OrrI emits orr rd, rn, #imm.
func (b *Builder) OrrI(rd, rn isa.Reg, imm int64) { b.aluImm(isa.ORR, rd, rn, imm) }

// Eor emits eor rd, rn, rm.
func (b *Builder) Eor(rd, rn, rm isa.Reg) { b.alu3(isa.EOR, rd, rn, rm) }

// EorI emits eor rd, rn, #imm.
func (b *Builder) EorI(rd, rn isa.Reg, imm int64) { b.aluImm(isa.EOR, rd, rn, imm) }

// Bic emits bic rd, rn, rm.
func (b *Builder) Bic(rd, rn, rm isa.Reg) { b.alu3(isa.BIC, rd, rn, rm) }

// LslI emits lsl rd, rn, #imm.
func (b *Builder) LslI(rd, rn isa.Reg, imm int64) { b.aluImm(isa.LSL, rd, rn, imm) }

// LsrI emits lsr rd, rn, #imm.
func (b *Builder) LsrI(rd, rn isa.Reg, imm int64) { b.aluImm(isa.LSR, rd, rn, imm) }

// AsrI emits asr rd, rn, #imm.
func (b *Builder) AsrI(rd, rn isa.Reg, imm int64) { b.aluImm(isa.ASR, rd, rn, imm) }

// Ubfm emits ubfm rd, rn, #immr, #imms (bitfield extract).
func (b *Builder) Ubfm(rd, rn isa.Reg, immr, imms int64) {
	b.Emit(isa.Inst{Op: isa.UBFM, Rd: rd, Rn: rn, Imm: immr, Imm2: imms})
}

// Rbit emits rbit rd, rn.
func (b *Builder) Rbit(rd, rn isa.Reg) {
	b.Emit(isa.Inst{Op: isa.RBIT, Rd: rd, Rn: rn})
}

// Mul emits mul rd, rn, rm.
func (b *Builder) Mul(rd, rn, rm isa.Reg) { b.alu3(isa.MUL, rd, rn, rm) }

// Sdiv emits sdiv rd, rn, rm.
func (b *Builder) Sdiv(rd, rn, rm isa.Reg) { b.alu3(isa.SDIV, rd, rn, rm) }

// Udiv emits udiv rd, rn, rm.
func (b *Builder) Udiv(rd, rn, rm isa.Reg) { b.alu3(isa.UDIV, rd, rn, rm) }

// Movz emits movz rd, #imm16, lsl #(16*hw).
func (b *Builder) Movz(rd isa.Reg, imm16 uint16, hw int64) {
	b.Emit(isa.Inst{Op: isa.MOVZ, Rd: rd, Imm: int64(imm16), Imm2: hw})
}

// Movk emits movk rd, #imm16, lsl #(16*hw).
func (b *Builder) Movk(rd isa.Reg, imm16 uint16, hw int64) {
	b.Emit(isa.Inst{Op: isa.MOVK, Rd: rd, Imm: int64(imm16), Imm2: hw})
}

// MovImm loads an arbitrary 64-bit constant using the shortest movz/movk
// sequence (1-4 architectural instructions).
func (b *Builder) MovImm(rd isa.Reg, v uint64) {
	first := true
	for hw := int64(0); hw < 4; hw++ {
		chunk := uint16(v >> (16 * hw))
		if chunk == 0 && !(first && hw == 3) {
			continue
		}
		if first {
			b.Movz(rd, chunk, hw)
			first = false
		} else {
			b.Movk(rd, chunk, hw)
		}
	}
	if first {
		b.Movz(rd, 0, 0)
	}
}

// MovAddr loads a data address into a register.
func (b *Builder) MovAddr(rd isa.Reg, addr uint64) { b.MovImm(rd, addr) }

// Mov emits the canonical register move orr rd, xzr, rm.
func (b *Builder) Mov(rd, rm isa.Reg) { b.alu3(isa.ORR, rd, isa.XZR, rm) }

// MovW emits a 32-bit register move orr wd, wzr, wm.
func (b *Builder) MovW(rd, rm isa.Reg) {
	b.Emit(isa.Inst{Op: isa.ORR, Rd: rd, Rn: isa.XZR, Rm: rm, W: true})
}

// Zero emits the canonical zero idiom eor rd, rd, rd.
func (b *Builder) Zero(rd isa.Reg) { b.alu3(isa.EOR, rd, rd, rd) }

// One emits movz rd, #1.
func (b *Builder) One(rd isa.Reg) { b.Movz(rd, 1, 0) }

// Csel emits csel rd, rn, rm, cond.
func (b *Builder) Csel(rd, rn, rm isa.Reg, c isa.Cond) {
	b.Emit(isa.Inst{Op: isa.CSEL, Rd: rd, Rn: rn, Rm: rm, Cond: c})
}

// Csinc emits csinc rd, rn, rm, cond.
func (b *Builder) Csinc(rd, rn, rm isa.Reg, c isa.Cond) {
	b.Emit(isa.Inst{Op: isa.CSINC, Rd: rd, Rn: rn, Rm: rm, Cond: c})
}

// Csneg emits csneg rd, rn, rm, cond.
func (b *Builder) Csneg(rd, rn, rm isa.Reg, c isa.Cond) {
	b.Emit(isa.Inst{Op: isa.CSNEG, Rd: rd, Rn: rn, Rm: rm, Cond: c})
}

// Cset emits cset rd, cond (csinc rd, xzr, xzr, !cond): rd = cond ? 1 : 0.
// This is the canonical boolean producer; its results are exactly the
// 0x0/0x1 values MVP targets.
func (b *Builder) Cset(rd isa.Reg, c isa.Cond) {
	b.Emit(isa.Inst{Op: isa.CSINC, Rd: rd, Rn: isa.XZR, Rm: isa.XZR, Cond: c.Invert()})
}

// ---- Memory helpers ----

// Ldr emits ldr rd, [rn, #imm] with the given access size in bytes.
func (b *Builder) Ldr(rd, rn isa.Reg, imm int64, size uint8) {
	b.Emit(isa.Inst{Op: isa.LDR, Rd: rd, Rn: rn, Imm: imm, Size: size, Mode: isa.AddrOff})
}

// LdrR emits ldr rd, [rn, rm, lsl #shift].
func (b *Builder) LdrR(rd, rn, rm isa.Reg, shift int64, size uint8) {
	b.Emit(isa.Inst{Op: isa.LDR, Rd: rd, Rn: rn, Rm: rm, Imm2: shift, Size: size, Mode: isa.AddrReg})
}

// LdrPost emits ldr rd, [rn], #imm (post-increment; cracks to 2 µops).
func (b *Builder) LdrPost(rd, rn isa.Reg, imm int64, size uint8) {
	b.Emit(isa.Inst{Op: isa.LDR, Rd: rd, Rn: rn, Imm: imm, Size: size, Mode: isa.AddrPost})
}

// LdrPre emits ldr rd, [rn, #imm]! (pre-increment; cracks to 2 µops).
func (b *Builder) LdrPre(rd, rn isa.Reg, imm int64, size uint8) {
	b.Emit(isa.Inst{Op: isa.LDR, Rd: rd, Rn: rn, Imm: imm, Size: size, Mode: isa.AddrPre})
}

// Str emits str rt, [rn, #imm].
func (b *Builder) Str(rt, rn isa.Reg, imm int64, size uint8) {
	b.Emit(isa.Inst{Op: isa.STR, Rd: rt, Rn: rn, Imm: imm, Size: size, Mode: isa.AddrOff})
}

// StrR emits str rt, [rn, rm, lsl #shift].
func (b *Builder) StrR(rt, rn, rm isa.Reg, shift int64, size uint8) {
	b.Emit(isa.Inst{Op: isa.STR, Rd: rt, Rn: rn, Rm: rm, Imm2: shift, Size: size, Mode: isa.AddrReg})
}

// StrPost emits str rt, [rn], #imm (post-increment; cracks to 2 µops).
func (b *Builder) StrPost(rt, rn isa.Reg, imm int64, size uint8) {
	b.Emit(isa.Inst{Op: isa.STR, Rd: rt, Rn: rn, Imm: imm, Size: size, Mode: isa.AddrPost})
}

// StrPre emits str rt, [rn, #imm]! (pre-increment; cracks to 2 µops).
func (b *Builder) StrPre(rt, rn isa.Reg, imm int64, size uint8) {
	b.Emit(isa.Inst{Op: isa.STR, Rd: rt, Rn: rn, Imm: imm, Size: size, Mode: isa.AddrPre})
}

// ---- Control flow helpers ----

// B emits an unconditional branch to the label.
func (b *Builder) B(l Label) { b.emitBranch(isa.Inst{Op: isa.B}, l) }

// BCond emits b.cond to the label.
func (b *Builder) BCond(c isa.Cond, l Label) {
	b.emitBranch(isa.Inst{Op: isa.BCOND, Cond: c}, l)
}

// Cbz emits cbz rn, label.
func (b *Builder) Cbz(rn isa.Reg, l Label) {
	b.emitBranch(isa.Inst{Op: isa.CBZ, Rn: rn}, l)
}

// Cbnz emits cbnz rn, label.
func (b *Builder) Cbnz(rn isa.Reg, l Label) {
	b.emitBranch(isa.Inst{Op: isa.CBNZ, Rn: rn}, l)
}

// Tbz emits tbz rn, #bit, label.
func (b *Builder) Tbz(rn isa.Reg, bit int64, l Label) {
	b.emitBranch(isa.Inst{Op: isa.TBZ, Rn: rn, Imm: bit}, l)
}

// Tbnz emits tbnz rn, #bit, label.
func (b *Builder) Tbnz(rn isa.Reg, bit int64, l Label) {
	b.emitBranch(isa.Inst{Op: isa.TBNZ, Rn: rn, Imm: bit}, l)
}

// Bl emits a branch-and-link (call) to the label.
func (b *Builder) Bl(l Label) { b.emitBranch(isa.Inst{Op: isa.BL}, l) }

// Ret emits ret (return via X30).
func (b *Builder) Ret() { b.Emit(isa.Inst{Op: isa.RET, Rn: isa.LR}) }

// Br emits an indirect branch through rn.
func (b *Builder) Br(rn isa.Reg) { b.Emit(isa.Inst{Op: isa.BR, Rn: rn}) }

// Halt emits the program-terminating instruction.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.HALT}) }

// ---- Floating point helpers ----

// Fadd emits fadd dd, dn, dm.
func (b *Builder) Fadd(dd, dn, dm isa.Reg) { b.Emit(isa.Inst{Op: isa.FADD, Rd: dd, Rn: dn, Rm: dm}) }

// Fsub emits fsub dd, dn, dm.
func (b *Builder) Fsub(dd, dn, dm isa.Reg) { b.Emit(isa.Inst{Op: isa.FSUB, Rd: dd, Rn: dn, Rm: dm}) }

// Fmul emits fmul dd, dn, dm.
func (b *Builder) Fmul(dd, dn, dm isa.Reg) { b.Emit(isa.Inst{Op: isa.FMUL, Rd: dd, Rn: dn, Rm: dm}) }

// Fdiv emits fdiv dd, dn, dm.
func (b *Builder) Fdiv(dd, dn, dm isa.Reg) { b.Emit(isa.Inst{Op: isa.FDIV, Rd: dd, Rn: dn, Rm: dm}) }

// Fmadd emits fmadd dd, dn, dm, da.
func (b *Builder) Fmadd(dd, dn, dm, da isa.Reg) {
	b.Emit(isa.Inst{Op: isa.FMADD, Rd: dd, Rn: dn, Rm: dm, Ra: da})
}

// Fmov emits fmov dd, dn.
func (b *Builder) Fmov(dd, dn isa.Reg) { b.Emit(isa.Inst{Op: isa.FMOV, Rd: dd, Rn: dn}) }

// Scvtf emits scvtf dd, xn.
func (b *Builder) Scvtf(dd, xn isa.Reg) { b.Emit(isa.Inst{Op: isa.SCVTF, Rd: dd, Rn: xn}) }

// Fcvtzs emits fcvtzs xd, dn.
func (b *Builder) Fcvtzs(xd, dn isa.Reg) { b.Emit(isa.Inst{Op: isa.FCVTZS, Rd: xd, Rn: dn}) }

// Fcmp emits fcmp dn, dm.
func (b *Builder) Fcmp(dn, dm isa.Reg) { b.Emit(isa.Inst{Op: isa.FCMP, Rn: dn, Rm: dm}) }

// Fldr emits fldr dd, [rn, #imm].
func (b *Builder) Fldr(dd, rn isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.FLDR, Rd: dd, Rn: rn, Imm: imm, Size: 8, Mode: isa.AddrOff})
}

// FldrPost emits fldr dd, [rn], #imm.
func (b *Builder) FldrPost(dd, rn isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.FLDR, Rd: dd, Rn: rn, Imm: imm, Size: 8, Mode: isa.AddrPost})
}

// Fstr emits fstr dt, [rn, #imm].
func (b *Builder) Fstr(dt, rn isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.FSTR, Rd: dt, Rn: rn, Imm: imm, Size: 8, Mode: isa.AddrOff})
}

// FstrPost emits fstr dt, [rn], #imm.
func (b *Builder) FstrPost(dt, rn isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.FSTR, Rd: dt, Rn: rn, Imm: imm, Size: 8, Mode: isa.AddrPost})
}
