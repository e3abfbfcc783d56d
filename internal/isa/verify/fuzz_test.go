package verify_test

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/fuzzgen"
	"repro/internal/isa"
	"repro/internal/isa/tvpb"
	"repro/internal/isa/verify"
)

// fuzzFuel bounds the functional execution per fuzz input. The
// verifier's termination guarantee is structural (every feasible cycle
// has an exit edge), not a step bound, so the harness checks soundness
// over a bounded window rather than running to HALT.
const fuzzFuel = 200_000

func memFootprint(in *isa.Inst) uint8 {
	switch in.Op {
	case isa.LDR, isa.STR:
		return in.Size
	case isa.FLDR, isa.FSTR:
		return 8 // FP accesses are always doubleword
	}
	return 0
}

// FuzzVerify fuzzes the verifier's soundness contract end to end:
// arbitrary container bytes must either fail to decode, be rejected
// with diagnostics, or — if admitted — execute on the emulator without
// panicking and without any memory access escaping the windows the
// Result reports. The seed corpus is the encoded fuzzgen programs, so
// mutations explore the boundary around programs the verifier accepts.
func FuzzVerify(f *testing.F) {
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(tvpb.EncodeProgram(fuzzgen.Generate(seed)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound decode+verify cost per input
		}
		p, res := verify.Binary(data)
		if p == nil || !res.OK() {
			return // rejection is always a safe outcome
		}
		e := emu.New(p)
		e.Run(fuzzFuel, func(d *emu.DynInst) {
			if size := memFootprint(d.Inst); size > 0 && !res.Allows(d.EA, size) {
				t.Fatalf("unsound accept: inst %d (%s) accessed %#x size %d outside the verified windows",
					d.Index, d.Inst.String(), d.EA, size)
			}
		})
	})
}
