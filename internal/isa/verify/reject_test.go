package verify_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
	"repro/internal/isa/tvpb"
	"repro/internal/isa/verify"
	"repro/internal/prog"
)

// rejectCase seeds one bad binary: the build function produces the
// container bytes (committed under testdata/bad so the corpus is
// inspectable and stable), and the verifier must reject them with an
// Error finding from the named check at the exact instruction index.
type rejectCase struct {
	name      string
	build     func() []byte
	wantCheck string
	wantIndex int
}

func encodeHalting(name string, emit func(b *prog.Builder) int) ([]byte, int) {
	b := prog.NewBuilder(name)
	idx := emit(b)
	b.Halt()
	return tvpb.EncodeProgram(b.Build()), idx
}

func rejectCases() []rejectCase {
	return []rejectCase{
		{name: "decode_truncated", wantCheck: "decode", wantIndex: -1,
			build: func() []byte {
				data, _ := encodeHalting("bad_truncated", func(b *prog.Builder) int {
					b.MovImm(isa.X0, 1)
					return 0
				})
				return data[:len(data)-20]
			}},
		{name: "decode_bad_opcode", wantCheck: "decode", wantIndex: -1,
			build: func() []byte {
				data, _ := encodeHalting("bad_opcode", func(b *prog.Builder) int {
					b.Nop()
					return 0
				})
				data[16+len("bad_opcode")] = 0xEE // inst 0's op byte
				return data
			}},
		{name: "target_out_of_range", wantCheck: "target", wantIndex: 0,
			build: func() []byte {
				// Hand-assembled: the builder cannot emit an unbound
				// target, which is exactly why the verifier re-checks.
				p := &prog.Program{Name: "bad_target", Code: []isa.Inst{
					{Op: isa.B, Target: 7},
					{Op: isa.HALT},
				}}
				return tvpb.EncodeProgram(p)
			}},
		{name: "fallthrough_off_end", wantCheck: "fallthrough", wantIndex: 1,
			build: func() []byte {
				p := &prog.Program{Name: "bad_fallthrough", Code: []isa.Inst{
					{Op: isa.NOP},
					{Op: isa.ADD, Rd: isa.X0, Rn: isa.X0, Rm: isa.XZR},
				}}
				return tvpb.EncodeProgram(p)
			}},
		{name: "halt_unreachable", wantCheck: "halt", wantIndex: -1,
			build: func() []byte {
				// The only HALT hides behind an unconditional skip; the
				// feasible path falls off the end instead.
				p := &prog.Program{Name: "bad_halt", Code: []isa.Inst{
					{Op: isa.B, Target: 2},
					{Op: isa.HALT},
					{Op: isa.NOP},
				}}
				return tvpb.EncodeProgram(p)
			}},
		{name: "bounds_load_outside_windows", wantCheck: "bounds", wantIndex: -1,
			build: func() []byte {
				data, _ := encodeHalting("bad_bounds", func(b *prog.Builder) int {
					b.MovImm(isa.X0, 0x100)
					b.Ldr(isa.X1, isa.X0, 0, 8)
					return 0
				})
				return data
			}},
		{name: "selfmod_store_to_text", wantCheck: "selfmod", wantIndex: -1,
			build: func() []byte {
				data, _ := encodeHalting("bad_selfmod", func(b *prog.Builder) int {
					b.MovImm(isa.X0, prog.TextBase)
					b.Str(isa.XZR, isa.X0, 0, 8)
					return 0
				})
				return data
			}},
		{name: "indirect_branch_outside_text", wantCheck: "indirect", wantIndex: -1,
			build: func() []byte {
				data, _ := encodeHalting("bad_indirect", func(b *prog.Builder) int {
					b.MovImm(isa.X16, 0x500000)
					b.Br(isa.X16)
					return 0
				})
				return data
			}},
		{name: "loop_inescapable", wantCheck: "loop", wantIndex: 0,
			build: func() []byte {
				p := &prog.Program{Name: "bad_loop", Code: []isa.Inst{
					{Op: isa.B, Target: 0},
					{Op: isa.HALT},
				}}
				return tvpb.EncodeProgram(p)
			}},
	}
}

// TestRejectCorpus drives every seeded-bad container through the full
// Binary entry point and demands the expected structured rejection. The
// wantIndex -1 cases pin only the check (the exact index is an
// implementation detail of which abstract instruction trips first);
// their diagnostic index is then asserted to carry a matching PC.
func TestRejectCorpus(t *testing.T) {
	for _, c := range rejectCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want := c.build()
			path := filepath.Join("testdata", "bad", c.name+".tvpb")
			//tvplint:ignore nondet UPDATE_CORPUS is an explicit opt-in regeneration knob; a normal run only compares committed bytes
			if os.Getenv("UPDATE_CORPUS") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, want, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with UPDATE_CORPUS=1)", err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("committed corpus drifted from its builder (%d vs %d bytes)", len(data), len(want))
			}

			_, res := verify.Binary(data)
			if res.OK() {
				t.Fatal("verifier accepted a seeded-bad binary")
			}
			found := false
			for _, d := range res.Errors() {
				if d.Check != c.wantCheck {
					continue
				}
				if c.wantIndex >= 0 && d.Index != c.wantIndex {
					continue
				}
				if d.Index >= 0 && d.PC != prog.PC(d.Index) {
					t.Errorf("diagnostic PC %#x does not match index %d (want %#x)", d.PC, d.Index, prog.PC(d.Index))
				}
				found = true
			}
			if !found {
				for _, d := range res.Diags {
					t.Logf("diag: %s", d)
				}
				t.Fatalf("no Error finding from check %q at index %d", c.wantCheck, c.wantIndex)
			}
		})
	}
}

// TestRejectBadOpcodeInMemory covers the struct check, which a decoded
// binary can never reach (the codec rejects unknown opcodes first): a
// hand-built in-memory program with an out-of-range Op must still be
// rejected with an exact position, as defense in depth for programs
// that bypass the container path.
func TestRejectBadOpcodeInMemory(t *testing.T) {
	p := &prog.Program{Name: "bad_struct", Code: []isa.Inst{
		{Op: isa.NOP},
		{Op: isa.Op(200)},
		{Op: isa.HALT},
	}}
	res := verify.Program(p)
	if res.OK() {
		t.Fatal("verifier accepted an invalid opcode")
	}
	for _, d := range res.Errors() {
		if d.Check == "struct" && d.Index == 1 && d.PC == prog.PC(1) {
			return
		}
	}
	for _, d := range res.Diags {
		t.Logf("diag: %s", d)
	}
	t.Fatal("no struct finding at instruction 1")
}
