// Package isa defines the ARMv8-flavored micro instruction set used by the
// simulator. It is deliberately a structural ISA: instructions are Go
// structs rather than binary encodings, because the pipeline model operates
// on decoded instructions and the paper's mechanisms (value prediction,
// speculative strength reduction) are defined over architectural operands,
// not bit patterns.
//
// The register model follows AArch64: 31 general purpose registers X0..X30,
// a hardwired zero register XZR (register index 31), 32 floating point
// registers D0..D31, and the NZCV condition flags. Instructions may operate
// on the full 64-bit register (X form) or on the low 32 bits with zero
// extension of the result (W form), selected by the W field.
package isa

import "fmt"

// Reg names an architectural register. Values 0..30 are X0..X30, 31 is the
// zero register XZR (reads as zero, writes are discarded). Floating point
// registers use the same 0..31 numbering in a separate namespace; the
// instruction's operand class determines which file a Reg refers to.
type Reg uint8

// Architectural register constants.
const (
	X0 Reg = iota
	X1
	X2
	X3
	X4
	X5
	X6
	X7
	X8
	X9
	X10
	X11
	X12
	X13
	X14
	X15
	X16
	X17
	X18
	X19
	X20
	X21
	X22
	X23
	X24
	X25
	X26
	X27
	X28
	X29 // frame pointer by convention
	X30 // link register by convention
	XZR // hardwired zero

	// NumRegs is the number of architectural integer registers including XZR.
	NumRegs = 32
)

// LR is the conventional link register.
const LR = X30

// String returns the assembly name of the register ("x7", "xzr").
func (r Reg) String() string {
	if r == XZR {
		return "xzr"
	}
	return fmt.Sprintf("x%d", uint8(r))
}

// FPString returns the floating point register name ("d7").
func (r Reg) FPString() string { return fmt.Sprintf("d%d", uint8(r)) }

// Op enumerates the operations of the micro-ISA. The set covers every
// instruction the paper's Table 1 strength-reduction idioms mention, the
// usual integer/logic/shift/multiply/divide operations, loads and stores
// with immediate, register, and pre/post-index addressing, direct,
// conditional, compare-and-branch, test-and-branch, and indirect control
// flow, and a floating point subset sufficient for the FP-heavy synthetic
// workloads.
type Op uint8

const (
	// NOP performs no operation.
	NOP Op = iota

	// Integer arithmetic and logic. The S-suffixed variants also set NZCV.

	ADD  // Rd = Rn + op2
	ADDS // Rd = Rn + op2, set NZCV
	SUB  // Rd = Rn - op2
	SUBS // Rd = Rn - op2, set NZCV (CMP is SUBS with Rd=XZR)
	AND  // Rd = Rn & op2
	ANDS // Rd = Rn & op2, set NZCV (TST is ANDS with Rd=XZR)
	ORR  // Rd = Rn | op2 (MOV reg is ORR Rd, XZR, Rm)
	EOR  // Rd = Rn ^ op2
	BIC  // Rd = Rn &^ op2
	LSL  // Rd = Rn << amount
	LSR  // Rd = Rn >> amount (logical)
	ASR  // Rd = Rn >> amount (arithmetic)
	UBFM // unsigned bitfield move: Rd = extract(Rn, Immr, Imms)
	RBIT // Rd = bit-reverse(Rn)
	MUL  // Rd = Rn * Rm (low half)
	SDIV // Rd = Rn / Rm (signed; division by zero yields 0 as in ARMv8)
	UDIV // Rd = Rn / Rm (unsigned; division by zero yields 0)

	// Immediate moves.

	MOVZ // Rd = Imm << (16*Shift)
	MOVK // Rd = (Rd &^ (0xffff<<16s)) | Imm<<(16*Shift); reads Rd
	MOVN // Rd = ^(Imm << (16*Shift))

	// Conditional selects. These read NZCV.

	CSEL  // Rd = cond ? Rn : Rm
	CSINC // Rd = cond ? Rn : Rm+1 (CSET is CSINC Rd, XZR, XZR, !cond)
	CSNEG // Rd = cond ? Rn : -Rm

	// Memory operations. Size is given by the Size field (1/2/4/8 bytes);
	// loads zero-extend. Addressing mode is given by Mode.

	LDR // Rd = mem[EA]
	STR // mem[EA] = Rt (source carried in Rd field)

	// Control flow. Branch targets are instruction indices (Target).

	B     // unconditional direct branch
	BCOND // conditional direct branch on Cond
	CBZ   // branch if Rn == 0
	CBNZ  // branch if Rn != 0
	TBZ   // branch if Rn bit Imm == 0
	TBNZ  // branch if Rn bit Imm != 0
	BL    // branch and link (X30 = return address)
	RET   // indirect branch to Rn (default X30)
	BR    // indirect branch to Rn

	// Floating point (double precision operating on the D file).

	FADD   // Dd = Dn + Dm
	FSUB   // Dd = Dn - Dm
	FMUL   // Dd = Dn * Dm
	FDIV   // Dd = Dn / Dm
	FMADD  // Dd = Dn * Dm + Da
	FNEG   // Dd = -Dn
	FABS   // Dd = |Dn|
	FMOV   // Dd = Dn
	SCVTF  // Dd = float64(int64(Xn))  (int → FP convert)
	FCVTZS // Xd = int64(Dn) truncated (FP → int convert)
	FLDR   // Dd = mem[EA]
	FSTR   // mem[EA] = Dt
	FCMP   // set NZCV from Dn ?= Dm

	// HALT stops the emulator; it marks the architectural end of a program.
	HALT

	numOps
)

var opNames = [numOps]string{
	NOP: "nop", ADD: "add", ADDS: "adds", SUB: "sub", SUBS: "subs",
	AND: "and", ANDS: "ands", ORR: "orr", EOR: "eor", BIC: "bic",
	LSL: "lsl", LSR: "lsr", ASR: "asr", UBFM: "ubfm", RBIT: "rbit",
	MUL: "mul", SDIV: "sdiv", UDIV: "udiv",
	MOVZ: "movz", MOVK: "movk", MOVN: "movn",
	CSEL: "csel", CSINC: "csinc", CSNEG: "csneg",
	LDR: "ldr", STR: "str",
	B: "b", BCOND: "b.", CBZ: "cbz", CBNZ: "cbnz", TBZ: "tbz", TBNZ: "tbnz",
	BL: "bl", RET: "ret", BR: "br",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FMADD: "fmadd",
	FNEG: "fneg", FABS: "fabs", FMOV: "fmov", SCVTF: "scvtf", FCVTZS: "fcvtzs",
	FLDR: "fldr", FSTR: "fstr", FCMP: "fcmp",
	HALT: "halt",
}

// String returns the mnemonic of the operation.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Cond is an ARMv8 condition code used by BCOND, CSEL, CSINC and CSNEG.
type Cond uint8

// Condition codes, in the ARMv8 encoding order.
const (
	EQ Cond = iota // Z == 1
	NE             // Z == 0
	CS             // C == 1
	CC             // C == 0
	MI             // N == 1
	PL             // N == 0
	VS             // V == 1
	VC             // V == 0
	HI             // C == 1 && Z == 0
	LS             // C == 0 || Z == 1
	GE             // N == V
	LT             // N != V
	GT             // Z == 0 && N == V
	LE             // Z == 1 || N != V
	AL             // always
)

var condNames = [...]string{
	EQ: "eq", NE: "ne", CS: "cs", CC: "cc", MI: "mi", PL: "pl",
	VS: "vs", VC: "vc", HI: "hi", LS: "ls", GE: "ge", LT: "lt",
	GT: "gt", LE: "le", AL: "al",
}

// String returns the condition mnemonic suffix.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Invert returns the logically opposite condition. Invert(AL) panics,
// since AL has no inverse in the ARMv8 sense used here.
func (c Cond) Invert() Cond {
	if c == AL {
		panic("isa: AL condition has no inverse")
	}
	return c ^ 1
}

// Flags packs the NZCV condition flags into the low four bits of a byte:
// bit 3 = N, bit 2 = Z, bit 1 = C, bit 0 = V.
type Flags uint8

// Flag bit masks.
const (
	FlagV Flags = 1 << iota
	FlagC
	FlagZ
	FlagN
)

// N reports whether the negative flag is set.
func (f Flags) N() bool { return f&FlagN != 0 }

// Z reports whether the zero flag is set.
func (f Flags) Z() bool { return f&FlagZ != 0 }

// C reports whether the carry flag is set.
func (f Flags) C() bool { return f&FlagC != 0 }

// V reports whether the overflow flag is set.
func (f Flags) V() bool { return f&FlagV != 0 }

// String renders the flags as "nzcv" with set flags uppercased.
func (f Flags) String() string {
	b := []byte("nzcv")
	if f.N() {
		b[0] = 'N'
	}
	if f.Z() {
		b[1] = 'Z'
	}
	if f.C() {
		b[2] = 'C'
	}
	if f.V() {
		b[3] = 'V'
	}
	return string(b)
}

// Holds evaluates the condition against the flags.
func (c Cond) Holds(f Flags) bool {
	switch c {
	case EQ:
		return f.Z()
	case NE:
		return !f.Z()
	case CS:
		return f.C()
	case CC:
		return !f.C()
	case MI:
		return f.N()
	case PL:
		return !f.N()
	case VS:
		return f.V()
	case VC:
		return !f.V()
	case HI:
		return f.C() && !f.Z()
	case LS:
		return !f.C() || f.Z()
	case GE:
		return f.N() == f.V()
	case LT:
		return f.N() != f.V()
	case GT:
		return !f.Z() && f.N() == f.V()
	case LE:
		return f.Z() || f.N() != f.V()
	case AL:
		return true
	}
	return false
}

// ZeroResultFlags returns the NZCV value produced by a flag-setting logic
// instruction whose result is zero: {N=0, Z=1, C=0, V=0}. The paper's SpSR
// mechanism hardwires this value for fully eliminated ANDS (§4.2).
func ZeroResultFlags() Flags { return FlagZ }

// AddrMode selects the addressing mode of a load or store.
type AddrMode uint8

const (
	// AddrOff computes EA = Rn + Imm. The base register is not written.
	AddrOff AddrMode = iota
	// AddrReg computes EA = Rn + Rm (register offset, optionally shifted
	// left by Imm2 for scaled indexing). The base register is not written.
	AddrReg
	// AddrPre computes EA = Rn + Imm and writes the updated base back to
	// Rn (pre-increment). Cracks into two µops at decode.
	AddrPre
	// AddrPost computes EA = Rn, then writes Rn + Imm back to Rn
	// (post-increment). Cracks into two µops at decode.
	AddrPost
)

// String names the addressing mode.
func (m AddrMode) String() string {
	switch m {
	case AddrOff:
		return "off"
	case AddrReg:
		return "regoff"
	case AddrPre:
		return "pre"
	case AddrPost:
		return "post"
	}
	return "addr?"
}

// Inst is one architectural instruction. Fields are interpreted per Op;
// unused fields are zero. Branch targets are program instruction indices
// (the loader maps them to byte PCs).
type Inst struct {
	Op   Op
	Rd   Reg   // destination (or store data source for STR/FSTR)
	Rn   Reg   // first source / base register
	Rm   Reg   // second source / offset register
	Ra   Reg   // third source (FMADD accumulator)
	Imm  int64 // immediate operand / bit index / shift
	Imm2 int64 // secondary immediate (UBFM imms, MOVZ/MOVK hw shift, scaled-index shift)
	Cond Cond  // condition for BCOND/CSEL/CSINC/CSNEG
	W    bool  // 32-bit (W register) form
	Size uint8 // memory access size in bytes for LDR/STR (1,2,4,8)
	Mode AddrMode
	// Target is the branch target as an instruction index within the
	// program for direct branches (B, BCOND, CBZ, CBNZ, TBZ, TBNZ, BL).
	Target int
	// UseImm selects the immediate form of two-operand ALU instructions
	// (ADD/SUB/AND/ORR/EOR/BIC/ANDS/SUBS/ADDS/LSL/LSR/ASR use Imm as op2
	// when set, Rm otherwise).
	UseImm bool
}

// Class partitions operations by the execution resource they need.
type Class uint8

const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassFPALU
	ClassFPMul
	ClassFPDiv
	ClassLoad
	ClassStore
	ClassBranch
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassIntALU:
		return "int-alu"
	case ClassIntMul:
		return "int-mul"
	case ClassIntDiv:
		return "int-div"
	case ClassFPALU:
		return "fp-alu"
	case ClassFPMul:
		return "fp-mul"
	case ClassFPDiv:
		return "fp-div"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	}
	return "class?"
}

// OpClass returns the execution class of an operation.
func OpClass(op Op) Class {
	switch op {
	case NOP, HALT:
		return ClassNop
	case MUL:
		return ClassIntMul
	case SDIV, UDIV:
		return ClassIntDiv
	case FADD, FSUB, FNEG, FABS, FMOV, SCVTF, FCVTZS, FCMP:
		return ClassFPALU
	case FMUL, FMADD:
		return ClassFPMul
	case FDIV:
		return ClassFPDiv
	case LDR, FLDR:
		return ClassLoad
	case STR, FSTR:
		return ClassStore
	case B, BCOND, CBZ, CBNZ, TBZ, TBNZ, BL, RET, BR:
		return ClassBranch
	default:
		return ClassIntALU
	}
}

// SetsFlags reports whether the operation writes NZCV.
func SetsFlags(op Op) bool {
	switch op {
	case ADDS, SUBS, ANDS, FCMP:
		return true
	}
	return false
}

// ReadsFlags reports whether the operation reads NZCV.
func ReadsFlags(op Op) bool {
	switch op {
	case BCOND, CSEL, CSINC, CSNEG:
		return true
	}
	return false
}

// IsBranch reports whether the operation is a control flow instruction.
func IsBranch(op Op) bool { return OpClass(op) == ClassBranch }

// IsCondBranch reports whether the operation is a conditional control flow
// instruction (one whose direction must be predicted).
func IsCondBranch(op Op) bool {
	switch op {
	case BCOND, CBZ, CBNZ, TBZ, TBNZ:
		return true
	}
	return false
}

// IsMem reports whether the operation accesses memory.
func IsMem(op Op) bool {
	c := OpClass(op)
	return c == ClassLoad || c == ClassStore
}

// IsFP reports whether the operation's primary destination (if any) is a
// floating point register.
func IsFP(op Op) bool {
	switch op {
	case FADD, FSUB, FMUL, FDIV, FMADD, FNEG, FABS, FMOV, SCVTF, FLDR:
		return true
	}
	return false
}

// WritesGPR reports whether the instruction produces a general purpose
// register result. Only such instructions are eligible for value
// prediction (§6.1: "only instructions that produce one (or more) general
// purpose register are eligible").
func (in *Inst) WritesGPR() bool {
	switch in.Op {
	case ADD, ADDS, SUB, SUBS, AND, ANDS, ORR, EOR, BIC,
		LSL, LSR, ASR, UBFM, RBIT, MUL, SDIV, UDIV,
		MOVZ, MOVK, MOVN, CSEL, CSINC, CSNEG, LDR, FCVTZS:
		return in.Rd != XZR
	case BL:
		return true // writes X30
	case STR, FSTR, FLDR:
		// Pre/post-index forms also write the GPR base register.
		return in.Mode == AddrPre || in.Mode == AddrPost
	}
	return false
}

// VPEligible reports whether the instruction is a candidate for value
// prediction: it must produce a general purpose register and be an
// arithmetic/logic or load instruction (§3.3: "we only predict arithmetic
// and load instructions"; branch-and-link and base-update side effects are
// excluded).
func (in *Inst) VPEligible() bool {
	switch in.Op {
	case ADD, ADDS, SUB, SUBS, AND, ANDS, ORR, EOR, BIC,
		LSL, LSR, ASR, UBFM, RBIT, MUL, SDIV, UDIV,
		MOVZ, MOVK, MOVN, CSEL, CSINC, CSNEG, LDR:
		return in.Rd != XZR
	}
	return false
}

// String disassembles the instruction.
func (in *Inst) String() string {
	rn := func(r Reg) string {
		if in.W && r != XZR {
			return fmt.Sprintf("w%d", uint8(r))
		}
		return r.String()
	}
	switch in.Op {
	case NOP, HALT:
		return in.Op.String()
	case ADD, ADDS, SUB, SUBS, AND, ANDS, ORR, EOR, BIC, LSL, LSR, ASR:
		if in.UseImm {
			return fmt.Sprintf("%s %s, %s, #%d", in.Op, rn(in.Rd), rn(in.Rn), in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, rn(in.Rd), rn(in.Rn), rn(in.Rm))
	case UBFM:
		return fmt.Sprintf("ubfm %s, %s, #%d, #%d", rn(in.Rd), rn(in.Rn), in.Imm, in.Imm2)
	case RBIT:
		return fmt.Sprintf("rbit %s, %s", rn(in.Rd), rn(in.Rn))
	case MUL, SDIV, UDIV:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, rn(in.Rd), rn(in.Rn), rn(in.Rm))
	case MOVZ, MOVN:
		return fmt.Sprintf("%s %s, #%d, lsl #%d", in.Op, rn(in.Rd), in.Imm, 16*in.Imm2)
	case MOVK:
		return fmt.Sprintf("movk %s, #%d, lsl #%d", rn(in.Rd), in.Imm, 16*in.Imm2)
	case CSEL, CSINC, CSNEG:
		return fmt.Sprintf("%s %s, %s, %s, %s", in.Op, rn(in.Rd), rn(in.Rn), rn(in.Rm), in.Cond)
	case LDR, FLDR, STR, FSTR:
		dst := rn(in.Rd)
		if in.Op == FLDR || in.Op == FSTR {
			dst = in.Rd.FPString()
		}
		switch in.Mode {
		case AddrOff:
			return fmt.Sprintf("%s %s, [%s, #%d]", in.Op, dst, in.Rn, in.Imm)
		case AddrReg:
			return fmt.Sprintf("%s %s, [%s, %s, lsl #%d]", in.Op, dst, in.Rn, in.Rm, in.Imm2)
		case AddrPre:
			return fmt.Sprintf("%s %s, [%s, #%d]!", in.Op, dst, in.Rn, in.Imm)
		case AddrPost:
			return fmt.Sprintf("%s %s, [%s], #%d", in.Op, dst, in.Rn, in.Imm)
		}
	case B, BL:
		return fmt.Sprintf("%s .%d", in.Op, in.Target)
	case BCOND:
		return fmt.Sprintf("b.%s .%d", in.Cond, in.Target)
	case CBZ, CBNZ:
		return fmt.Sprintf("%s %s, .%d", in.Op, rn(in.Rn), in.Target)
	case TBZ, TBNZ:
		return fmt.Sprintf("%s %s, #%d, .%d", in.Op, rn(in.Rn), in.Imm, in.Target)
	case RET:
		// ARM convention: the link register is implicit, so the common
		// form renders bare and only a nonstandard Rn is spelled out.
		if in.Rn == LR {
			return "ret"
		}
		return fmt.Sprintf("ret %s", in.Rn)
	case BR:
		return fmt.Sprintf("br %s", in.Rn)
	case FADD, FSUB, FMUL, FDIV:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd.FPString(), in.Rn.FPString(), in.Rm.FPString())
	case FMADD:
		return fmt.Sprintf("fmadd %s, %s, %s, %s", in.Rd.FPString(), in.Rn.FPString(), in.Rm.FPString(), in.Ra.FPString())
	case FNEG, FABS, FMOV:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd.FPString(), in.Rn.FPString())
	case SCVTF:
		return fmt.Sprintf("scvtf %s, %s", in.Rd.FPString(), rn(in.Rn))
	case FCVTZS:
		return fmt.Sprintf("fcvtzs %s, %s", rn(in.Rd), in.Rn.FPString())
	case FCMP:
		return fmt.Sprintf("fcmp %s, %s", in.Rn.FPString(), in.Rm.FPString())
	}
	return fmt.Sprintf("%s ?", in.Op)
}
