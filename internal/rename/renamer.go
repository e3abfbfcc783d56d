package rename

import (
	"fmt"

	"repro/internal/isa"
)

// Operand is a renamed source operand: its name plus whatever the renamer
// knows about its value at rename time.
type Operand struct {
	// Name is the physical name the operand maps to (possibly a value
	// name or a hardwired register).
	Name Name
	// Known reports whether the value is known at rename (inlined,
	// hardwired, or the architectural zero register).
	Known bool
	// Value is the known 64-bit register content (valid when Known).
	Value int64
	// Wide reports whether the producing definition was 64-bit. For
	// known values the flag is informational; the value itself governs.
	Wide bool
	// Spec reports whether the knowledge is speculative, i.e. derives
	// (possibly through a chain of reductions) from a value prediction.
	// Reductions consuming speculative operands are SpSR; reductions
	// consuming only architectural knowledge are dynamic strength
	// reduction.
	Spec bool
}

type mapping struct {
	name Name
	wide bool
	spec bool
}

// Renamer is the integer+FP renaming state: speculative RAT, committed
// CRAT, free lists, reference counts for move elimination, and the
// frontend NZCV register used by SpSR.
type Renamer struct {
	rat  [isa.NumRegs]mapping
	crat [isa.NumRegs]mapping

	fpRAT  [32]Name
	fpCRAT [32]Name

	freeInt  []Name // fixed backing store; the live stack is freeInt[:nFreeInt]
	freeFP   []Name
	nFreeInt int
	nFreeFP  int
	rc       []int32 // reference counts, indexed by physical name
	fpRC     []int32

	nPhysInt, nPhysFP int

	// Frontend NZCV tracking (§4.2): valid between an SpSR'd flag writer
	// and the next renamed non-reduced flag writer.
	nzcvKnown bool
	nzcvSpec  bool
	nzcv      isa.Flags
}

// NewRenamer builds a renamer with the given physical register file
// sizes. Architectural integer registers X0..X30 start mapped to physical
// registers 2..32 (0 and 1 being hardwired); XZR maps to HardZero. FP
// registers map to FP physical 0..31.
func NewRenamer(nPhysInt, nPhysFP int) *Renamer {
	r := &Renamer{
		nPhysInt: nPhysInt,
		nPhysFP:  nPhysFP,
		rc:       make([]int32, nPhysInt),
		fpRC:     make([]int32, nPhysFP),
	}
	// Hardwired registers are permanently live.
	r.rc[HardZero] = 1
	r.rc[HardOne] = 1
	next := Name(2)
	for a := 0; a < isa.NumRegs-1; a++ {
		r.rat[a] = mapping{name: next, wide: true}
		r.crat[a] = r.rat[a]
		r.rc[next] = 1
		next++
	}
	r.rat[isa.XZR] = mapping{name: HardZero, wide: true}
	r.crat[isa.XZR] = r.rat[isa.XZR]
	r.freeInt = make([]Name, nPhysInt)
	for p := int(next); p < nPhysInt; p++ {
		r.freeInt[r.nFreeInt] = Name(p)
		r.nFreeInt++
	}
	for a := 0; a < 32; a++ {
		r.fpRAT[a] = Name(a)
		r.fpCRAT[a] = Name(a)
		r.fpRC[a] = 1
	}
	r.freeFP = make([]Name, nPhysFP)
	for p := 32; p < nPhysFP; p++ {
		r.freeFP[r.nFreeFP] = Name(p)
		r.nFreeFP++
	}
	return r
}

// FreeInt returns the number of free integer physical registers.
func (r *Renamer) FreeInt() int { return r.nFreeInt }

// FreeFP returns the number of free FP physical registers.
func (r *Renamer) FreeFP() int { return r.nFreeFP }

// SrcInt renames an integer source operand. The value extraction is
// open-coded rather than going through Name.Known/Name.Value: the RAT
// never holds Invalid, so ValueBit alone identifies an inlined value and
// names <= HardOne are the hardwired constants — and dropping the panic
// path keeps SrcInt within the inlining budget of its rename-stage
// callers (two calls per µop). XZR needs no special case: rat[XZR] is
// initialized to HardZero and every Def* path ignores XZR writes, so the
// table lookup itself yields {HardZero, known 0, wide}. The &31 mask
// encodes the NumRegs == 32 bound (checked at encode time) so the lookup
// compiles without a bounds check.
func (r *Renamer) SrcInt(reg isa.Reg) Operand {
	var o Operand
	r.SrcIntInto(&o, reg)
	return o
}

// SrcIntInto is SrcInt writing through an out pointer. The rename stage
// keeps its two source Operands on its own frame and passes them by
// pointer from here on; materializing the 24-byte struct exactly once
// avoids the build-then-copy the by-value form compiles to, whose
// narrow stores followed by wide copy loads defeat store-to-load
// forwarding in the hottest path of the whole simulator.
func (r *Renamer) SrcIntInto(o *Operand, reg isa.Reg) {
	m := r.rat[reg&31]
	// Branchless: the 9-bit sign-extension that decodes value names also
	// yields the hardwired constants (names 0 and 1 sign-extend to values
	// 0 and 1), so one expression covers every Known case and the two
	// data-dependent branches of the obvious formulation — unpredictable
	// on reduction-heavy code — disappear. Value is contractually valid
	// only when Known; for plain physical names it holds decoded garbage.
	o.Name = m.name
	o.Known = m.name&ValueBit != 0 || m.name <= HardOne
	o.Value = int64(int16(m.name<<7)) >> 7 // sign-extend the low 9 bits
	o.Wide = m.wide
	o.Spec = m.spec
}

// SrcFP renames an FP source operand.
func (r *Renamer) SrcFP(reg isa.Reg) Name { return r.fpRAT[reg&31] }

// AllocInt pops a free integer physical register (reference count 1).
// Callers must check FreeInt first; it panics when empty.
func (r *Renamer) AllocInt() Name {
	if r.nFreeInt == 0 {
		panic("rename: integer free list empty")
	}
	r.nFreeInt--
	n := r.freeInt[r.nFreeInt]
	if r.rc[n] != 0 {
		panic(fmt.Sprintf("rename: allocating live register %v (rc=%d)", n, r.rc[n]))
	}
	r.rc[n] = 1
	return n
}

// AllocFP pops a free FP physical register.
func (r *Renamer) AllocFP() Name {
	if r.nFreeFP == 0 {
		panic("rename: FP free list empty")
	}
	r.nFreeFP--
	n := r.freeFP[r.nFreeFP]
	if r.fpRC[n] != 0 {
		panic(fmt.Sprintf("rename: allocating live FP register %v", n))
	}
	r.fpRC[n] = 1
	return n
}

// DefInt installs a new speculative mapping for an integer architectural
// destination. For a freshly allocated name the reference count is
// already 1; for a shared mapping (move elimination, hardwired or value
// names) use DefIntShared instead. Defining XZR is a no-op.
func (r *Renamer) DefInt(arch isa.Reg, n Name, wide, spec bool) {
	if arch == isa.XZR {
		return
	}
	r.rat[arch] = mapping{name: n, wide: wide, spec: spec}
}

// DefIntShared installs a mapping that shares an existing name (move
// elimination maps the destination onto the source's physical register;
// idiom elimination maps onto a hardwired or value name). Physical names
// gain a reference.
func (r *Renamer) DefIntShared(arch isa.Reg, n Name, wide, spec bool) {
	if arch == isa.XZR {
		return
	}
	if n.IsPhys() && !n.IsHardwired() {
		r.rc[n]++
	}
	r.rat[arch] = mapping{name: n, wide: wide, spec: spec}
}

// DefFP installs a new FP mapping.
func (r *Renamer) DefFP(arch isa.Reg, n Name) { r.fpRAT[arch&31] = n }

// Release drops one reference to an integer physical name, returning it
// to the free list when dead. Hardwired and value names are no-ops. Every
// squashed in-flight definition and every committed overwritten CRAT
// mapping releases exactly once.
func (r *Renamer) Release(n Name) {
	if !n.IsPhys() || n.IsHardwired() {
		return
	}
	r.rc[n]--
	switch {
	case r.rc[n] == 0:
		r.freeInt[r.nFreeInt] = n
		r.nFreeInt++
	case r.rc[n] < 0:
		panic(fmt.Sprintf("rename: double release of %v", n))
	}
}

// ReleaseFP drops one reference to an FP physical name.
func (r *Renamer) ReleaseFP(n Name) {
	if n == Invalid {
		return
	}
	r.fpRC[n]--
	switch {
	case r.fpRC[n] == 0:
		r.freeFP[r.nFreeFP] = n
		r.nFreeFP++
	case r.fpRC[n] < 0:
		panic(fmt.Sprintf("rename: double release of FP %v", n))
	}
}

// CommitDefInt retires an integer definition: the overwritten committed
// mapping is released (§3.2.1 register reclamation — a value name in the
// CRAT is simply not put on the free list, which Release handles) and the
// CRAT takes the new mapping.
func (r *Renamer) CommitDefInt(arch isa.Reg, n Name, wide, spec bool) {
	if arch == isa.XZR {
		return
	}
	r.Release(r.crat[arch].name)
	r.crat[arch] = mapping{name: n, wide: wide, spec: spec}
}

// CommitDefFP retires an FP definition.
func (r *Renamer) CommitDefFP(arch isa.Reg, n Name) {
	a := arch & 31
	r.ReleaseFP(r.fpCRAT[a])
	r.fpCRAT[a] = n
}

// RestoreFromCRAT copies the committed state into the speculative RAT
// (the first step of the paper's flush recovery: "copying the CRAT to the
// RAT and iteratively re-applying mappings from an in-order queue"). The
// pipeline then replays surviving in-flight definitions with ReplayDef.
// The frontend NZCV is conservatively invalidated.
func (r *Renamer) RestoreFromCRAT() {
	r.rat = r.crat
	r.fpRAT = r.fpCRAT
	r.nzcvKnown = false
}

// ReplayDefInt re-applies a surviving in-flight integer definition during
// flush recovery (no reference count changes: the in-flight reference is
// still held by the ROB entry).
func (r *Renamer) ReplayDefInt(arch isa.Reg, n Name, wide, spec bool) {
	if arch == isa.XZR {
		return
	}
	r.rat[arch] = mapping{name: n, wide: wide, spec: spec}
}

// ReplayDefFP re-applies a surviving FP definition during flush recovery.
func (r *Renamer) ReplayDefFP(arch isa.Reg, n Name) { r.fpRAT[arch&31] = n }

// NZCV returns the frontend condition flags if an SpSR'd flag writer made
// them known and no later flag writer invalidated them, plus whether that
// knowledge is speculative.
func (r *Renamer) NZCV() (f isa.Flags, spec, known bool) {
	return r.nzcv, r.nzcvSpec, r.nzcvKnown
}

// SetNZCV records frontend-known condition flags produced by an SpSR'd
// (or otherwise rename-resolved) flag writer.
func (r *Renamer) SetNZCV(f isa.Flags, spec bool) {
	r.nzcv, r.nzcvSpec, r.nzcvKnown = f, spec, true
}

// InvalidateNZCV forgets the frontend flags; called when a non-reduced
// flag writer renames (§4.2: "invalidated as soon as the next condition
// flag writer is renamed").
func (r *Renamer) InvalidateNZCV() { r.nzcvKnown = false }
