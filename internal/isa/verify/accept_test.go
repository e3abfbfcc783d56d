package verify_test

import (
	"testing"

	"repro/internal/fuzzgen"
	"repro/internal/isa"
	"repro/internal/isa/verify"
	"repro/internal/prog"
	"repro/internal/workload"
)

// TestVerifyAcceptsSuite is the core acceptance gate: the verifier must
// pass every built-in workload with zero Error-severity findings —
// anything else is a false reject that would block legitimate binaries
// at the -load gate.
func TestVerifyAcceptsSuite(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := workload.Program(name)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res := verify.Program(p)
			for _, d := range res.Errors() {
				t.Errorf("false reject: %s", d)
			}
			if t.Failed() {
				t.Logf("memory fixpoint took %d rounds", res.MemIters)
			}
		})
	}
}

// TestVerifyAcceptsFuzzgen requires the verifier to accept every
// constrained-random program the generator can emit (they are all safe
// by construction; FuzzVerify extends this over the native fuzzer).
func TestVerifyAcceptsFuzzgen(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		p := fuzzgen.Generate(seed)
		res := verify.Program(p)
		for _, d := range res.Errors() {
			t.Errorf("seed %d: false reject: %s", seed, d)
		}
	}
}

// TestDefUseWarns pins def-before-use as a lint finding: a register
// never written reads as zero at reset, so the verifier admits the
// binary and reports a Warn at the reading instruction.
func TestDefUseWarns(t *testing.T) {
	data, _ := encodeHalting("defuse", func(b *prog.Builder) int {
		b.Add(isa.X1, isa.X5, isa.X6) // X5/X6 never written
		return 0
	})
	p, res := verify.Binary(data)
	if p == nil || !res.OK() {
		for _, d := range res.Diags {
			t.Logf("diag: %s", d)
		}
		t.Fatal("verifier rejected a def-before-use read")
	}
	for _, d := range res.Diags {
		if d.Check == "defuse" && d.Sev == verify.Warn && d.Index == 0 && d.PC == prog.PC(0) {
			return
		}
	}
	t.Fatalf("no defuse Warn at instruction 0 in %v", res.Diags)
}
