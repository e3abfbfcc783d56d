package pipeline

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Divergence reports that the pipeline's retired architectural state
// departed from the shadow emulator's at one instruction. The checker
// panics with a *Divergence the moment it is detected, so a divergence is
// always attributed to the exact retiring instruction; test harnesses
// (internal/fuzzgen.Diverges) recover it and minimize the program.
type Divergence struct {
	Seq    uint64 // dynamic sequence number of the retiring instruction
	PC     uint64 // byte address of the instruction
	Disasm string // disassembly of the instruction
	Field  string // which architectural field diverged
	Want   uint64 // oracle (shadow emulator) value
	Got    uint64 // pipeline value
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("crosscheck: divergence at seq %d pc %#x `%s`: %s: oracle %#x, pipeline %#x",
		d.Seq, d.PC, d.Disasm, d.Field, d.Want, d.Got)
}

// crossCheck is the shadow-emulator retire checker (config.Machine.
// CrossCheck): a second functional emulator, restored from the same
// checkpoint the core was built over, stepped once per retiring
// architectural instruction. Because the timing model is trace-driven, the
// DynInst records it retires are produced by the primary emulator — so the
// checker's job is to prove that retirement replays the functional stream
// exactly (in order, without skips, duplicates, or retirement past HALT)
// and that every value prediction the pipeline actually used matches the
// architecturally computed result. It observes but never influences
// timing; when disabled the core pays one nil-check per committed µop.
type crossCheck struct {
	shadow *emu.Emulator
	sd     emu.DynInst // scratch: the shadow's view of the retiring instruction
	vpPend bool        // a used prediction awaits the instruction's retirement
	vpVal  uint64      // the predicted value the pipeline consumed
}

// retireUop is called from commit() for every retiring µop, in program
// order. The shadow steps once per architectural instruction (on its last
// µop); used predictions are captured at the main µop so multi-µop
// instructions check the prediction their main µop consumed.
func (x *crossCheck) retireUop(c *Core, u *uop) {
	// The retiring µop's dynamic record is re-read from the run-ahead
	// ring, which holds it until the instruction commits. Were the slot
	// overwritten, its record's Seq would differ from the shadow's and
	// the seq check below would flag it.
	s := c.ra.at(u.seq)
	d := &s.d
	if u.kind == isa.UOpMain && u.vpUsed {
		x.vpPend = true
		x.vpVal = s.vpValue
	}
	if !u.last {
		return
	}
	if x.shadow.Halted() {
		x.fail(d, "retire-past-halt", 0, d.Seq)
	}
	if !x.shadow.Step(&x.sd) {
		x.fail(d, "shadow-step", 0, d.Seq)
	}
	sd := &x.sd
	if sd.Seq != d.Seq {
		x.fail(d, "seq", sd.Seq, d.Seq)
	}
	if sd.PC != d.PC {
		x.fail(d, "pc", sd.PC, d.PC)
	}
	if sd.NextPC != d.NextPC {
		x.fail(d, "next-pc", sd.NextPC, d.NextPC)
	}
	if sd.Taken != d.Taken {
		x.fail(d, "taken", b2u(sd.Taken), b2u(d.Taken))
	}
	if sd.FlagsOut != d.FlagsOut {
		x.fail(d, "nzcv", uint64(sd.FlagsOut), uint64(d.FlagsOut))
	}
	if sd.Result != d.Result {
		x.fail(d, "result", sd.Result, d.Result)
	}
	if sd.BaseResult != d.BaseResult {
		x.fail(d, "base-result", sd.BaseResult, d.BaseResult)
	}
	in := d.Inst
	if isa.IsMem(in.Op) {
		if sd.EA != d.EA {
			x.fail(d, "ea", sd.EA, d.EA)
		}
		if in.Op == isa.STR || in.Op == isa.FSTR {
			// StoreData is W-masked, not size-masked, so compare the
			// memory image by size: the shadow has just performed the
			// store, so reading the EA back yields the oracle value.
			mask := sizeMask(in.Size)
			if got, want := d.StoreData&mask, x.shadow.Mem.Read(sd.EA, in.Size); got != want {
				x.fail(d, "mem-value", want, got)
			}
		}
	}
	if x.vpPend {
		x.vpPend = false
		// A used prediction must equal the architectural result; the
		// DynInst's Result comes from the functional stream and is correct
		// by construction, so this is the only check that can observe a
		// broken value-prediction datapath (e.g. a comparator that passes
		// a wrong prediction).
		if d.WritesGPRResult() && x.vpVal != sd.Result {
			x.fail(d, "vp-value", sd.Result, x.vpVal)
		}
	}
}

// finish is called after the run loop when the program retired to
// completion: the shadow must be positioned exactly at HALT (the pipeline
// consumes HALT at fetch, so it never retires through retireUop).
func (x *crossCheck) finish() {
	if x.shadow.Halted() {
		return // zero-length run: the core was built over a halted emulator
	}
	if !x.shadow.Step(&x.sd) || x.sd.Inst.Op != isa.HALT {
		panic(&Divergence{
			Seq:    x.sd.Seq,
			PC:     x.sd.PC,
			Disasm: x.sd.Inst.String(),
			Field:  "halt",
			Want:   uint64(isa.HALT),
			Got:    uint64(x.sd.Inst.Op),
		})
	}
}

func (x *crossCheck) fail(d *emu.DynInst, field string, want, got uint64) {
	panic(&Divergence{Seq: d.Seq, PC: d.PC, Disasm: d.Inst.String(), Field: field, Want: want, Got: got})
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sizeMask(size uint8) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*uint64(size)) - 1
}

// injectVPBug arms a one-shot value-prediction fault: the next prediction
// the pipeline decides to use is corrupted by XORing mask into it, and
// validation is forced to pass for that instruction (modeling a broken
// validation comparator). Test-only: it exists so the differential harness
// can prove the retire checker catches a wrong used prediction at the
// exact retiring instruction.
func (c *Core) injectVPBug(mask uint64) {
	c.bugArmed = true
	c.bugMask = mask
}

// bugSeq returns the sequence number of the corrupted instruction (valid
// once the armed bug has fired), for tests to assert attribution.
func (c *Core) bugSeq() (uint64, bool) {
	if c.bugSeqPlus1 == 0 {
		return 0, false
	}
	return c.bugSeqPlus1 - 1, true
}
