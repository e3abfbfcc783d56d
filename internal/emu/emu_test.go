package emu

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/prog"
)

// run executes a builder-made program to HALT and returns the final
// emulator state.
func run(t *testing.T, build func(b *prog.Builder)) *Emulator {
	t.Helper()
	b := prog.NewBuilder("t")
	build(b)
	e := New(b.Build())
	if n := e.Run(100000, nil); n >= 100000 {
		t.Fatal("program did not halt")
	}
	return e
}

func TestALUBasics(t *testing.T) {
	e := run(t, func(b *prog.Builder) {
		b.MovImm(isa.X1, 100)
		b.MovImm(isa.X2, 7)
		b.Add(isa.X3, isa.X1, isa.X2)   // 107
		b.Sub(isa.X4, isa.X1, isa.X2)   // 93
		b.And(isa.X5, isa.X1, isa.X2)   // 4
		b.Orr(isa.X6, isa.X1, isa.X2)   // 103
		b.Eor(isa.X7, isa.X1, isa.X2)   // 99
		b.Bic(isa.X8, isa.X1, isa.X2)   // 96
		b.Mul(isa.X9, isa.X1, isa.X2)   // 700
		b.Sdiv(isa.X10, isa.X1, isa.X2) // 14
		b.Udiv(isa.X11, isa.X1, isa.X2) // 14
		b.LslI(isa.X12, isa.X1, 3)      // 800
		b.LsrI(isa.X13, isa.X1, 2)      // 25
	})
	want := map[isa.Reg]uint64{
		isa.X3: 107, isa.X4: 93, isa.X5: 4, isa.X6: 103, isa.X7: 99,
		isa.X8: 96, isa.X9: 700, isa.X10: 14, isa.X11: 14, isa.X12: 800, isa.X13: 25,
	}
	for r, v := range want {
		if e.X[r] != v {
			t.Errorf("%v = %d, want %d", r, e.X[r], v)
		}
	}
}

func TestZeroRegister(t *testing.T) {
	e := run(t, func(b *prog.Builder) {
		b.MovImm(isa.X1, 42)
		b.Add(isa.XZR, isa.X1, isa.X1) // write discarded
		b.Add(isa.X2, isa.XZR, isa.X1) // read as zero
	})
	if e.X[isa.XZR] != 0 {
		t.Error("XZR must stay zero")
	}
	if e.X[isa.X2] != 42 {
		t.Errorf("x2 = %d, want 42", e.X[isa.X2])
	}
}

func TestDivideByZero(t *testing.T) {
	e := run(t, func(b *prog.Builder) {
		b.MovImm(isa.X1, 42)
		b.Zero(isa.X2)
		b.Sdiv(isa.X3, isa.X1, isa.X2)
		b.Udiv(isa.X4, isa.X1, isa.X2)
	})
	if e.X[isa.X3] != 0 || e.X[isa.X4] != 0 {
		t.Error("division by zero must yield 0 (ARMv8 semantics)")
	}
}

func TestMovSequence(t *testing.T) {
	const v = 0x1234_5678_9abc_def0
	e := run(t, func(b *prog.Builder) {
		b.MovImm(isa.X1, v)
		b.Emit(isa.Inst{Op: isa.MOVN, Rd: isa.X2, Imm: 5}) // ^5
	})
	if e.X[isa.X1] != v {
		t.Errorf("MovImm = %#x, want %#x", e.X[isa.X1], uint64(v))
	}
	if e.X[isa.X2] != ^uint64(5) {
		t.Errorf("movn = %#x", e.X[isa.X2])
	}
}

func TestWForm(t *testing.T) {
	e := run(t, func(b *prog.Builder) {
		b.MovImm(isa.X1, 0xffff_ffff_ffff_fff0)
		b.Emit(isa.Inst{Op: isa.ADD, Rd: isa.X2, Rn: isa.X1, Imm: 0x20, UseImm: true, W: true})
	})
	// 32-bit add: 0xfffffff0 + 0x20 = 0x10 with zero-extended result.
	if e.X[isa.X2] != 0x10 {
		t.Errorf("W-form add = %#x, want 0x10", e.X[isa.X2])
	}
}

func TestFlagsAddSub(t *testing.T) {
	for _, tc := range []struct {
		a, b                       uint64
		sub                        bool
		wantN, wantZ, wantC, wantV bool
	}{
		{0, 0, true, false, true, true, false},               // 0-0: Z C
		{0, 1, true, true, false, false, false},              // 0-1: N
		{1, 0, true, false, false, true, false},              // 1-0: C
		{1 << 63, 1, true, false, false, true, true},         // min - 1: overflow
		{math.MaxUint64, 1, false, false, true, true, false}, // -1 + 1 = 0: Z C
		{1<<63 - 1, 1, false, true, false, false, true},      // max + 1: N V
	} {
		op := isa.ADDS
		if tc.sub {
			op = isa.SUBS
		}
		e := run(t, func(b *prog.Builder) {
			b.MovImm(isa.X1, tc.a)
			b.MovImm(isa.X2, tc.b)
			b.Emit(isa.Inst{Op: op, Rd: isa.X3, Rn: isa.X1, Rm: isa.X2})
		})
		f := e.Flags
		if f.N() != tc.wantN || f.Z() != tc.wantZ || f.C() != tc.wantC || f.V() != tc.wantV {
			t.Errorf("%v %#x,%#x: flags %v", op, tc.a, tc.b, f)
		}
	}
}

func TestFlagsSubsProperty(t *testing.T) {
	// SUBS flags must agree with an arbitrary-precision reference.
	f := func(a, b uint64) bool {
		e := run(t, func(bb *prog.Builder) {
			bb.MovImm(isa.X1, a)
			bb.MovImm(isa.X2, b)
			bb.Subs(isa.X3, isa.X1, isa.X2)
		})
		d := a - b
		wantN := int64(d) < 0
		wantZ := d == 0
		wantC := a >= b
		wantV := (int64(a) >= 0) != (int64(b) >= 0) && (int64(d) >= 0) != (int64(a) >= 0)
		fl := e.Flags
		return fl.N() == wantN && fl.Z() == wantZ && fl.C() == wantC && fl.V() == wantV && e.X[isa.X3] == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConditionalSelects(t *testing.T) {
	e := run(t, func(b *prog.Builder) {
		b.MovImm(isa.X1, 10)
		b.MovImm(isa.X2, 20)
		b.CmpI(isa.X1, 10)                      // Z=1
		b.Csel(isa.X3, isa.X1, isa.X2, isa.EQ)  // 10
		b.Csel(isa.X4, isa.X1, isa.X2, isa.NE)  // 20
		b.Csinc(isa.X5, isa.X1, isa.X2, isa.NE) // 21
		b.Csneg(isa.X6, isa.X1, isa.X2, isa.NE) // -20
		b.Cset(isa.X7, isa.EQ)                  // 1
		b.Cset(isa.X8, isa.NE)                  // 0
	})
	if e.X[isa.X3] != 10 || e.X[isa.X4] != 20 || e.X[isa.X5] != 21 ||
		e.X[isa.X6] != uint64(^uint64(20)+1) || e.X[isa.X7] != 1 || e.X[isa.X8] != 0 {
		t.Errorf("csel family: %d %d %d %#x %d %d",
			e.X[isa.X3], e.X[isa.X4], e.X[isa.X5], e.X[isa.X6], e.X[isa.X7], e.X[isa.X8])
	}
}

func TestUbfmRbit(t *testing.T) {
	e := run(t, func(b *prog.Builder) {
		b.MovImm(isa.X1, 0xabcd)
		b.Ubfm(isa.X2, isa.X1, 4, 7) // (0xabcd>>4) & 0xff = 0xbc
		b.MovImm(isa.X3, 1)
		b.Rbit(isa.X4, isa.X3) // 1<<63
	})
	if e.X[isa.X2] != 0xbc {
		t.Errorf("ubfm = %#x, want 0xbc", e.X[isa.X2])
	}
	if e.X[isa.X4] != 1<<63 {
		t.Errorf("rbit = %#x, want 1<<63", e.X[isa.X4])
	}
}

func TestMemorySizes(t *testing.T) {
	e := run(t, func(b *prog.Builder) {
		buf := b.Alloc(64, 8)
		b.MovAddr(isa.X1, buf)
		b.MovImm(isa.X2, 0x1122334455667788)
		b.Str(isa.X2, isa.X1, 0, 8)
		b.Ldr(isa.X3, isa.X1, 0, 1) // 0x88
		b.Ldr(isa.X4, isa.X1, 0, 2) // 0x7788
		b.Ldr(isa.X5, isa.X1, 0, 4) // 0x55667788
		b.Ldr(isa.X6, isa.X1, 0, 8)
		b.Str(isa.X2, isa.X1, 8, 2) // store low 16 bits
		b.Ldr(isa.X7, isa.X1, 8, 8)
	})
	if e.X[isa.X3] != 0x88 || e.X[isa.X4] != 0x7788 || e.X[isa.X5] != 0x55667788 ||
		e.X[isa.X6] != 0x1122334455667788 || e.X[isa.X7] != 0x7788 {
		t.Errorf("sized loads: %#x %#x %#x %#x %#x",
			e.X[isa.X3], e.X[isa.X4], e.X[isa.X5], e.X[isa.X6], e.X[isa.X7])
	}
}

func TestAddressingModes(t *testing.T) {
	e := run(t, func(b *prog.Builder) {
		buf := b.AllocWords(8, 10, 20, 30, 40)
		b.MovAddr(isa.X1, buf)
		b.LdrPost(isa.X2, isa.X1, 8, 8) // x2=10, x1+=8
		b.LdrPost(isa.X3, isa.X1, 8, 8) // x3=20
		b.LdrPre(isa.X4, isa.X1, 8, 8)  // x1+=8 first → x4=buf[3]=40
		b.MovImm(isa.X5, 2)
		b.MovAddr(isa.X6, buf)
		b.LdrR(isa.X7, isa.X6, isa.X5, 3, 8) // buf[2]=30
	})
	if e.X[isa.X2] != 10 || e.X[isa.X3] != 20 || e.X[isa.X4] != 40 || e.X[isa.X7] != 30 {
		t.Errorf("addressing: %d %d %d %d", e.X[isa.X2], e.X[isa.X3], e.X[isa.X4], e.X[isa.X7])
	}
}

func TestBranchesAndCalls(t *testing.T) {
	e := run(t, func(b *prog.Builder) {
		over := b.NewLabel()
		fn := b.NewLabel()
		b.B(over)
		b.Bind(fn)
		b.AddI(isa.X1, isa.X1, 5)
		b.Ret()
		b.Bind(over)
		b.Bl(fn)
		b.Bl(fn)
		// Counted loop: x2 = 10 iterations.
		b.MovImm(isa.X2, 10)
		top := b.Here()
		b.AddI(isa.X3, isa.X3, 1)
		b.SubsI(isa.X2, isa.X2, 1)
		b.BCond(isa.NE, top)
		// cbz/cbnz/tbz.
		skip := b.NewLabel()
		b.Cbz(isa.X3, skip) // not taken (x3=10)
		b.AddI(isa.X4, isa.X4, 1)
		b.Bind(skip)
		skip2 := b.NewLabel()
		b.Tbz(isa.X3, 1, skip2) // bit1 of 10 is 1 → not taken
		b.AddI(isa.X5, isa.X5, 1)
		b.Bind(skip2)
	})
	if e.X[isa.X1] != 10 {
		t.Errorf("two calls should add 10, got %d", e.X[isa.X1])
	}
	if e.X[isa.X3] != 10 {
		t.Errorf("loop ran %d times", e.X[isa.X3])
	}
	if e.X[isa.X4] != 1 || e.X[isa.X5] != 1 {
		t.Errorf("conditional skips wrong: %d %d", e.X[isa.X4], e.X[isa.X5])
	}
}

func TestIndirectBranch(t *testing.T) {
	e := run(t, func(b *prog.Builder) {
		tbl := b.Alloc(16, 8)
		tgt := b.NewLabel()
		over := b.NewLabel()
		b.SetWordLabel(tbl, tgt)
		b.MovAddr(isa.X1, tbl)
		b.Ldr(isa.X2, isa.X1, 0, 8)
		b.Br(isa.X2)
		b.AddI(isa.X3, isa.X3, 100) // skipped
		b.Bind(tgt)
		b.AddI(isa.X3, isa.X3, 1)
		b.B(over)
		b.Bind(over)
	})
	if e.X[isa.X3] != 1 {
		t.Errorf("indirect branch executed wrong path: x3=%d", e.X[isa.X3])
	}
}

func TestFPOps(t *testing.T) {
	e := run(t, func(b *prog.Builder) {
		b.MovImm(isa.X1, 3)
		b.MovImm(isa.X2, 4)
		b.Scvtf(0, isa.X1)  // d0 = 3.0
		b.Scvtf(1, isa.X2)  // d1 = 4.0
		b.Fadd(2, 0, 1)     // 7
		b.Fmul(3, 0, 1)     // 12
		b.Fdiv(4, 1, 0)     // 4/3
		b.Fmadd(5, 0, 1, 2) // 3*4+7 = 19
		b.Fsub(6, 0, 1)     // -1
		b.Fcvtzs(isa.X3, 3) // 12
		b.Fcmp(0, 1)        // 3 < 4 → N
		b.Cset(isa.X4, isa.MI)
	})
	get := func(r isa.Reg) float64 { return math.Float64frombits(e.D[r]) }
	if get(2) != 7 || get(3) != 12 || get(5) != 19 || get(6) != -1 {
		t.Errorf("fp: %v %v %v %v", get(2), get(3), get(5), get(6))
	}
	if math.Abs(get(4)-4.0/3.0) > 1e-15 {
		t.Errorf("fdiv = %v", get(4))
	}
	if e.X[isa.X3] != 12 {
		t.Errorf("fcvtzs = %d", e.X[isa.X3])
	}
	if e.X[isa.X4] != 1 {
		t.Error("fcmp should set N for 3 < 4")
	}
}

func TestDynInstRecords(t *testing.T) {
	b := prog.NewBuilder("d")
	buf := b.AllocWords(1, 0x55)
	b.MovAddr(isa.X1, buf)
	b.Ldr(isa.X2, isa.X1, 0, 8)
	b.StrPost(isa.X2, isa.X1, 8, 8)
	b.Halt()
	e := New(b.Build())
	var recs []DynInst
	var d DynInst
	for e.Step(&d) {
		recs = append(recs, d)
	}
	ld := recs[len(recs)-3]
	st := recs[len(recs)-2]
	if ld.Inst.Op != isa.LDR || ld.Result != 0x55 || ld.EA != buf {
		t.Errorf("load record: %+v", ld)
	}
	if st.Inst.Op != isa.STR || st.StoreData != 0x55 || st.EA != buf || st.BaseResult != buf+8 {
		t.Errorf("store record: %+v", st)
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("seq %d at index %d", r.Seq, i)
		}
	}
}

func TestMemoryLittleEndianProperty(t *testing.T) {
	f := func(addr uint32, v uint64) bool {
		m := NewMemory()
		a := uint64(addr)
		m.Write(a, v, 8)
		if m.Read(a, 8) != v {
			return false
		}
		// Byte-wise agreement.
		for i := uint64(0); i < 8; i++ {
			if uint64(m.LoadByte(a+i)) != v>>(8*i)&0xff {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMemoryStraddlesPages(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3)
	m.Write(addr, 0x1122334455667788, 8)
	if got := m.Read(addr, 8); got != 0x1122334455667788 {
		t.Errorf("straddling read = %#x", got)
	}
	if m.PageCount() != 2 {
		t.Errorf("straddling write mapped %d pages, want 2", m.PageCount())
	}
}
