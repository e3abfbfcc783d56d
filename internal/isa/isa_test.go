package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

// refHolds is an independent truth table for condition evaluation.
func refHolds(c Cond, n, z, cc, v bool) bool {
	switch c {
	case EQ:
		return z
	case NE:
		return !z
	case CS:
		return cc
	case CC:
		return !cc
	case MI:
		return n
	case PL:
		return !n
	case VS:
		return v
	case VC:
		return !v
	case HI:
		return cc && !z
	case LS:
		return !cc || z
	case GE:
		return n == v
	case LT:
		return n != v
	case GT:
		return !z && n == v
	case LE:
		return z || n != v
	case AL:
		return true
	}
	return false
}

func TestCondHoldsExhaustive(t *testing.T) {
	for c := EQ; c <= AL; c++ {
		for bits := 0; bits < 16; bits++ {
			f := Flags(bits)
			want := refHolds(c, f.N(), f.Z(), f.C(), f.V())
			if got := c.Holds(f); got != want {
				t.Errorf("%v.Holds(%v) = %v, want %v", c, f, got, want)
			}
		}
	}
}

func TestCondInvert(t *testing.T) {
	for c := EQ; c < AL; c++ {
		inv := c.Invert()
		for bits := 0; bits < 16; bits++ {
			f := Flags(bits)
			if c.Holds(f) == inv.Holds(f) {
				t.Errorf("%v and its inverse %v agree on %v", c, inv, f)
			}
		}
	}
}

func TestInvertALPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Invert(AL) did not panic")
		}
	}()
	AL.Invert()
}

func TestFlagsString(t *testing.T) {
	if s := (FlagN | FlagZ).String(); s != "NZcv" {
		t.Errorf("flags string = %q, want NZcv", s)
	}
	if s := Flags(0).String(); s != "nzcv" {
		t.Errorf("flags string = %q, want nzcv", s)
	}
	if !ZeroResultFlags().Z() || ZeroResultFlags().N() || ZeroResultFlags().C() || ZeroResultFlags().V() {
		t.Errorf("ZeroResultFlags = %v, want Z only", ZeroResultFlags())
	}
}

func TestOpClassPartition(t *testing.T) {
	cases := map[Op]Class{
		NOP: ClassNop, HALT: ClassNop,
		ADD: ClassIntALU, ANDS: ClassIntALU, CSEL: ClassIntALU, MOVZ: ClassIntALU,
		MUL:  ClassIntMul,
		SDIV: ClassIntDiv, UDIV: ClassIntDiv,
		FADD: ClassFPALU, FCMP: ClassFPALU, SCVTF: ClassFPALU, FCVTZS: ClassFPALU,
		FMUL: ClassFPMul, FMADD: ClassFPMul,
		FDIV: ClassFPDiv,
		LDR:  ClassLoad, FLDR: ClassLoad,
		STR: ClassStore, FSTR: ClassStore,
		B: ClassBranch, BCOND: ClassBranch, CBZ: ClassBranch, RET: ClassBranch, BL: ClassBranch,
	}
	for op, want := range cases {
		if got := OpClass(op); got != want {
			t.Errorf("OpClass(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestFlagOps(t *testing.T) {
	for _, op := range []Op{ADDS, SUBS, ANDS, FCMP} {
		if !SetsFlags(op) {
			t.Errorf("SetsFlags(%v) = false", op)
		}
	}
	for _, op := range []Op{ADD, SUB, AND, MUL, LDR} {
		if SetsFlags(op) {
			t.Errorf("SetsFlags(%v) = true", op)
		}
	}
	for _, op := range []Op{BCOND, CSEL, CSINC, CSNEG} {
		if !ReadsFlags(op) {
			t.Errorf("ReadsFlags(%v) = false", op)
		}
	}
	if ReadsFlags(CBZ) {
		t.Error("CBZ does not read NZCV (it tests a register)")
	}
}

func TestBranchQueries(t *testing.T) {
	if !IsCondBranch(BCOND) || !IsCondBranch(TBNZ) || IsCondBranch(B) || IsCondBranch(RET) {
		t.Error("IsCondBranch misclassifies")
	}
}

func TestVPEligible(t *testing.T) {
	for _, tc := range []struct {
		in   Inst
		want bool
	}{
		{Inst{Op: ADD, Rd: X3}, true},
		{Inst{Op: LDR, Rd: X3}, true},
		{Inst{Op: ADD, Rd: XZR}, false}, // no GPR result
		{Inst{Op: STR, Rd: X3}, false},  // stores don't produce a register
		{Inst{Op: BL}, false},           // branch-and-link excluded (§3.3)
		{Inst{Op: FADD, Rd: 3}, false},  // FP result
		{Inst{Op: BCOND}, false},
		{Inst{Op: CSINC, Rd: X5}, true},
	} {
		if got := tc.in.VPEligible(); got != tc.want {
			t.Errorf("VPEligible(%v) = %v, want %v", tc.in.String(), got, tc.want)
		}
	}
}

func TestWritesGPR(t *testing.T) {
	if (&Inst{Op: STR, Rd: X1, Mode: AddrPost}).WritesGPR() != true {
		t.Error("post-index store writes its base register")
	}
	if (&Inst{Op: STR, Rd: X1, Mode: AddrOff}).WritesGPR() {
		t.Error("plain store writes no GPR")
	}
	if !(&Inst{Op: BL}).WritesGPR() {
		t.Error("BL writes the link register")
	}
	if !(&Inst{Op: FCVTZS, Rd: X2}).WritesGPR() {
		t.Error("FCVTZS writes a GPR")
	}
	if (&Inst{Op: FADD, Rd: 2}).WritesGPR() {
		t.Error("FADD writes an FP register, not a GPR")
	}
}

func TestCrack(t *testing.T) {
	plain := Inst{Op: LDR, Rd: X0, Rn: X1, Mode: AddrOff}
	if CrackCount(&plain) != 1 {
		t.Errorf("plain load cracks to %d µops", CrackCount(&plain))
	}
	post := Inst{Op: LDR, Rd: X0, Rn: X1, Mode: AddrPost, Imm: 8}
	if CrackCount(&post) != 2 {
		t.Errorf("post-index load cracks to %d µops", CrackCount(&post))
	}
	pre := Inst{Op: FSTR, Rd: 0, Rn: X1, Mode: AddrPre, Imm: -16}
	if CrackCount(&pre) != 2 {
		t.Error("pre-index FP store cracks to 2 µops")
	}
}

func TestRegString(t *testing.T) {
	if X7.String() != "x7" || XZR.String() != "xzr" {
		t.Error("register naming")
	}
	if Reg(3).FPString() != "d3" {
		t.Error("FP register naming")
	}
}

func TestInstStringSmoke(t *testing.T) {
	// Every op should disassemble to something non-empty and containing
	// its mnemonic.
	insts := []Inst{
		{Op: ADD, Rd: X0, Rn: X1, Rm: X2},
		{Op: SUB, Rd: X0, Rn: X1, Imm: 4, UseImm: true},
		{Op: UBFM, Rd: X0, Rn: X1, Imm: 3, Imm2: 7},
		{Op: MOVZ, Rd: X0, Imm: 42},
		{Op: MOVK, Rd: X0, Imm: 42, Imm2: 1},
		{Op: CSEL, Rd: X0, Rn: X1, Rm: X2, Cond: GT},
		{Op: LDR, Rd: X0, Rn: X1, Imm: 8, Size: 8, Mode: AddrOff},
		{Op: STR, Rd: X0, Rn: X1, Imm: 8, Size: 8, Mode: AddrPost},
		{Op: LDR, Rd: X0, Rn: X1, Rm: X2, Imm2: 3, Size: 8, Mode: AddrReg},
		{Op: BCOND, Cond: NE, Target: 5},
		{Op: CBZ, Rn: X3, Target: 9},
		{Op: TBNZ, Rn: X3, Imm: 17, Target: 9},
		{Op: RET, Rn: X30},
		{Op: FMADD, Rd: 0, Rn: 1, Rm: 2, Ra: 3},
		{Op: SCVTF, Rd: 0, Rn: X4},
		{Op: FCMP, Rn: 1, Rm: 2},
		{Op: NOP},
	}
	for i := range insts {
		s := insts[i].String()
		if s == "" || strings.Contains(s, "?") {
			t.Errorf("bad disassembly for op %v: %q", insts[i].Op, s)
		}
	}
}

func TestIndirectString(t *testing.T) {
	// RET follows the ARM convention of leaving the link register
	// implicit; BR and nonstandard RET operands spell the register out.
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: RET, Rn: LR}, "ret"},
		{Inst{Op: RET, Rn: X5}, "ret x5"},
		{Inst{Op: BR, Rn: X16}, "br x16"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%v disassembles to %q, want %q", c.in.Op, got, c.want)
		}
	}
}

func TestWFormString(t *testing.T) {
	in := Inst{Op: ADD, Rd: X0, Rn: X1, Rm: X2, W: true}
	if s := in.String(); !strings.Contains(s, "w0") {
		t.Errorf("W-form should print w registers: %q", s)
	}
}

func TestCondPropertyInvertInvolution(t *testing.T) {
	f := func(b uint8) bool {
		c := Cond(b % 14) // EQ..LE
		return c.Invert().Invert() == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
