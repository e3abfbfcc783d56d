package isa

import (
	"strings"
	"testing"
)

// repInsts holds one representative, operand-populated instruction per
// operation. TestCodecRoundTripEveryOp fails if an op is ever added to the
// enum without a row here, closing the gap that only workload-used opcodes
// were exercised.
var repInsts = map[Op]Inst{
	NOP:    {Op: NOP},
	ADD:    {Op: ADD, Rd: X0, Rn: X1, Rm: X2},
	ADDS:   {Op: ADDS, Rd: X3, Rn: X4, Imm: 17, UseImm: true, W: true},
	SUB:    {Op: SUB, Rd: X5, Rn: X6, Rm: X7, W: true},
	SUBS:   {Op: SUBS, Rd: XZR, Rn: X8, Imm: -9, UseImm: true},
	AND:    {Op: AND, Rd: X9, Rn: X10, Imm: 0xff, UseImm: true},
	ANDS:   {Op: ANDS, Rd: XZR, Rn: X11, Rm: X12},
	ORR:    {Op: ORR, Rd: X13, Rn: XZR, Rm: X14},
	EOR:    {Op: EOR, Rd: X15, Rn: X16, Rm: X17},
	BIC:    {Op: BIC, Rd: X18, Rn: X19, Rm: X20},
	LSL:    {Op: LSL, Rd: X21, Rn: X22, Imm: 3, UseImm: true},
	LSR:    {Op: LSR, Rd: X23, Rn: X24, Rm: X25},
	ASR:    {Op: ASR, Rd: X26, Rn: X27, Imm: 63, UseImm: true},
	UBFM:   {Op: UBFM, Rd: X0, Rn: X1, Imm: 8, Imm2: 15},
	RBIT:   {Op: RBIT, Rd: X2, Rn: X3},
	MUL:    {Op: MUL, Rd: X4, Rn: X5, Rm: X6},
	SDIV:   {Op: SDIV, Rd: X7, Rn: X8, Rm: X9, W: true},
	UDIV:   {Op: UDIV, Rd: X10, Rn: X11, Rm: X12},
	MOVZ:   {Op: MOVZ, Rd: X13, Imm: 0xbeef, Imm2: 1},
	MOVK:   {Op: MOVK, Rd: X14, Imm: 0xdead, Imm2: 2},
	MOVN:   {Op: MOVN, Rd: X15, Imm: 0x7fff, Imm2: 3},
	CSEL:   {Op: CSEL, Rd: X16, Rn: X17, Rm: X18, Cond: NE},
	CSINC:  {Op: CSINC, Rd: X19, Rn: XZR, Rm: XZR, Cond: GT},
	CSNEG:  {Op: CSNEG, Rd: X20, Rn: X21, Rm: X22, Cond: LE},
	LDR:    {Op: LDR, Rd: X0, Rn: X1, Imm: 8, Size: 8, Mode: AddrOff},
	STR:    {Op: STR, Rd: X2, Rn: X3, Rm: X4, Imm2: 2, Size: 4, Mode: AddrReg},
	B:      {Op: B, Target: 5},
	BCOND:  {Op: BCOND, Cond: EQ, Target: 3},
	CBZ:    {Op: CBZ, Rn: X5, Target: 7},
	CBNZ:   {Op: CBNZ, Rn: X6, Target: 9, W: true},
	TBZ:    {Op: TBZ, Rn: X7, Imm: 5, Target: 11},
	TBNZ:   {Op: TBNZ, Rn: X8, Imm: 63, Target: 13},
	BL:     {Op: BL, Target: 15},
	RET:    {Op: RET, Rn: X30},
	BR:     {Op: BR, Rn: X9},
	FADD:   {Op: FADD, Rd: X0, Rn: X1, Rm: X2},
	FSUB:   {Op: FSUB, Rd: X3, Rn: X4, Rm: X5},
	FMUL:   {Op: FMUL, Rd: X6, Rn: X7, Rm: X8},
	FDIV:   {Op: FDIV, Rd: X9, Rn: X10, Rm: X11},
	FMADD:  {Op: FMADD, Rd: X12, Rn: X13, Rm: X14, Ra: X15},
	FNEG:   {Op: FNEG, Rd: X16, Rn: X17},
	FABS:   {Op: FABS, Rd: X18, Rn: X19},
	FMOV:   {Op: FMOV, Rd: X20, Rn: X21},
	SCVTF:  {Op: SCVTF, Rd: X22, Rn: X23},
	FCVTZS: {Op: FCVTZS, Rd: X24, Rn: X25},
	FLDR:   {Op: FLDR, Rd: X26, Rn: X27, Imm: 16, Size: 8, Mode: AddrPre},
	FSTR:   {Op: FSTR, Rd: X28, Rn: X29, Imm: -8, Size: 8, Mode: AddrPost},
	FCMP:   {Op: FCMP, Rn: X0, Rm: X1},
	HALT:   {Op: HALT},
}

// TestCodecRoundTripEveryOp proves encode→decode→disassemble integrity for
// every operation in the enum: the binary form round-trips exactly and the
// disassembler has a real case (no "?" fallback) for each.
func TestCodecRoundTripEveryOp(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		in, ok := repInsts[op]
		if !ok {
			t.Fatalf("op %v has no representative instruction: extend repInsts", op)
		}
		if in.Op != op {
			t.Fatalf("repInsts[%v] has op %v", op, in.Op)
		}
		got, err := Decode(Encode(&in))
		if err != nil {
			t.Errorf("%v: decode: %v", op, err)
			continue
		}
		if got != in {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", op, got, in)
		}
		s := in.String()
		if s == "" || strings.Contains(s, "?") || strings.Contains(s, "op(") {
			t.Errorf("%v: disassembly fell through to a fallback: %q", op, s)
		}
	}
}

// TestCodecRoundTripVariants exercises the operand dimensions a single
// representative per op cannot: all four addressing modes for each memory
// op, both width forms, and immediate-vs-register ALU forms.
func TestCodecRoundTripVariants(t *testing.T) {
	var variants []Inst
	for _, op := range []Op{LDR, STR, FLDR, FSTR} {
		for _, mode := range []AddrMode{AddrOff, AddrReg, AddrPre, AddrPost} {
			for _, size := range []uint8{1, 2, 4, 8} {
				variants = append(variants, Inst{Op: op, Rd: X0, Rn: X1, Rm: X2, Imm: 24, Size: size, Mode: mode})
			}
		}
	}
	for _, op := range []Op{ADD, SUBS, ANDS, EOR, LSL} {
		for _, w := range []bool{false, true} {
			variants = append(variants,
				Inst{Op: op, Rd: X3, Rn: X4, Rm: X5, W: w},
				Inst{Op: op, Rd: X3, Rn: X4, Imm: 41, UseImm: true, W: w})
		}
	}
	for c := EQ; c <= AL; c++ {
		variants = append(variants, Inst{Op: CSEL, Rd: X1, Rn: X2, Rm: X3, Cond: c})
	}
	for _, in := range variants {
		got, err := Decode(Encode(&in))
		if err != nil {
			t.Errorf("%s: decode: %v", in.String(), err)
			continue
		}
		if got != in {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", in.String(), got, in)
		}
	}
}

// TestDecodeRejectsMalformed proves arbitrary bytes cannot produce an Inst
// outside the ISA's value space.
func TestDecodeRejectsMalformed(t *testing.T) {
	base := Encode(&Inst{Op: ADD, Rd: X0, Rn: X1, Rm: X2})
	mutate := func(off int, v byte) [EncodedSize]byte {
		b := base
		b[off] = v
		return b
	}
	cases := []struct {
		name string
		b    [EncodedSize]byte
	}{
		{"bad op", mutate(0, byte(numOps))},
		{"bad rd", mutate(1, 32)},
		{"bad rn", mutate(2, 0xff)},
		{"bad rm", mutate(3, 99)},
		{"bad ra", mutate(4, 64)},
		{"bad cond", mutate(5, byte(AL)+1)},
		{"bad size", mutate(6, 3)},
		{"bad mode", mutate(7, byte(AddrPost)+1)},
		{"bad flags", mutate(32, 0x80)},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.b); err == nil {
			t.Errorf("%s: decode accepted malformed encoding", tc.name)
		}
	}
}

// TestCrackEveryOp checks the µop count of every operation in every
// addressing mode: exactly the pre/post-index loads and stores crack
// into a Main µop plus a BaseUpdate µop, everything else into one µop.
func TestCrackEveryOp(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		for _, mode := range []AddrMode{AddrOff, AddrReg, AddrPre, AddrPost} {
			in := repInsts[op]
			in.Mode = mode
			want := 1
			if c := OpClass(op); (c == ClassLoad || c == ClassStore) && (mode == AddrPre || mode == AddrPost) {
				want = 2
			}
			if got := CrackCount(&in); got != want {
				t.Errorf("%v %v: CrackCount = %d, want %d", op, mode, got, want)
			}
		}
	}
	for _, op := range []Op{LDR, STR, FLDR, FSTR} {
		for _, mode := range []AddrMode{AddrOff, AddrReg, AddrPre, AddrPost} {
			in := Inst{Op: op, Rd: X0, Rn: X1, Imm: 8, Size: 8, Mode: mode}
			want := 1
			if mode == AddrPre || mode == AddrPost {
				want = 2
			}
			if got := CrackCount(&in); got != want {
				t.Errorf("%v %v: CrackCount = %d, want %d", op, mode, got, want)
			}
		}
	}
}
