// Package pipeline implements the cycle-level out-of-order core of the
// paper's Table 2: an 11-stage, 8-wide machine with a 315-entry ROB,
// 92-entry IQ, 74/53-entry load/store queues, 292+292 physical registers,
// TAGE branch prediction, optional MVP/TVP/GVP value prediction with
// in-place validation at the functional units, baseline move and 0/1-idiom
// elimination, optional 9-bit idiom elimination and speculative strength
// reduction at rename, Store Sets memory dependence prediction, and the
// Table 2 cache/TLB/prefetcher hierarchy.
//
// The core is trace-fed: a functional emulator (internal/emu) runs ahead
// on a producer goroutine, with the branch predictors, and the pipeline
// consumes its correct-path dynamic stream through a ring (runahead.go).
// Branch mispredictions stall fetch until the branch resolves; value
// mispredictions and memory order violations flush by rewinding the
// ring's cursor (see DESIGN.md for the fidelity argument).
package pipeline

import (
	"repro/internal/isa"
	"repro/internal/rename"
)

// uopState tracks a µop's progress through the backend.
type uopState uint8

const (
	// stRenamed: in the ROB, waiting for dispatch.
	stRenamed uopState = iota
	// stDispatched: in the IQ (and LQ/SQ if memory), waiting to issue.
	stDispatched
	// stIssued: executing on a functional unit.
	stIssued
	// stDone: executed (or rename-eliminated); awaiting commit.
	stDone
)

// srcOperand is one renamed source of a µop.
type srcOperand struct {
	name rename.Name
	fp   bool
}

// noIdx is the "no ROB slot" sentinel for the index-based side structures
// (IQ, LQ/SQ, exec list, flag dependences, GVP tracking).
const noIdx int32 = -1

// uop is an in-flight micro-operation. µops live in the ROB ring; the
// scheduler-side structures (IQ, LQ/SQ, exec list, flag and GVP
// cross-references) hold ROB slot indices rather than pointers, so the
// backend scans walk a dense int32 array and the ROB itself instead of
// chasing heap pointers, and the entries carry no GC write barriers.
//
// The struct is deliberately pointer-free (enforced by the tvplint
// hotstruct check): dynamic-record state is reached through the
// run-ahead ring by sequence number (runAhead.at) and static-instruction
// state through sIdx into the program text / crack tables, so the ROB
// ring is invisible to the garbage collector — rewriting an entry at
// rename carries no write barriers and the GC never scans the ring.
//
// The struct is also deliberately compact (fat VP metadata lives in the
// run-ahead ring keyed by seq): renameUop rewrites a whole entry per
// µop, so every byte here is a byte of duffcopy on the hottest path in
// the simulator.
//
//tvp:hotstruct
type uop struct {
	seq         uint64 // architectural dynamic sequence number (DynInst.Seq)
	uSeq        uint64 // unique µop sequence for flag dependences and ordering
	renameCycle uint64
	// The result-ready cycle lives in Core.robReady (struct-of-arrays,
	// indexed by robIdx) so the completion/commit/skip polls stay off
	// this struct's cache lines.

	// Memory state.
	ea          uint64
	memDepSeq   uint64 // store (dyn) seq this op must wait for; 0 = none
	flagSrcUSeq uint64

	// Renamed operands.
	srcs [4]srcOperand

	robIdx     int32 // this µop's own ROB slot
	flagSrcIdx int32 // ROB slot of the in-flight flag producer; noIdx = none
	sIdx       int32 // static instruction index (DynInst.Index) into text/crack

	dst     rename.Name
	kind    isa.UOpKind
	class   isa.Class
	state   uopState
	fu      uint8 // functional unit index while issued
	nsrc    uint8
	memSize uint8
	dstArch isa.Reg

	// Rename-time elimination (the Origin/Kind pair is all commit-side
	// accounting needs; the full rename.Decision never leaves rename).
	elimKind   rename.Kind
	elimOrigin rename.Origin

	last bool // last µop of its architectural instruction

	flagW bool // writes NZCV at execute
	flagR bool // reads NZCV at execute

	// Destination.
	hasDst   bool
	dstFP    bool
	dstWide  bool
	dstSpec  bool
	freshDst bool // dst came from the free list (vs shared/hardwired/value)

	eliminated  bool
	moveBlocked bool

	// Value prediction (training metadata stays in the run-ahead ring,
	// re-read at commit; only the use-time policy bits live here).
	vpUsed     bool // the prediction was consumed by renaming the dest
	vpWide     bool // GVP: prediction written to the PRF (not inlined)
	vpConsumed bool // GVP: a dependent read the predicted register

	// Branch state (main µop of branch instructions).
	isBranch      bool
	resolvedEarly bool // SpSR resolved the branch at rename

	isLoad, isStore bool
	executedMem     bool // address generated / access performed
}

// reset reinitializes a recycled ROB slot for a freshly renamed µop. It
// is the field-by-field equivalent of assigning a `uop{...}` composite
// literal, written out explicitly because the literal form materializes a
// 120-byte zeroed temporary and duffcopies it into the slot — measurably
// the single hottest block in the simulator. Every field of uop MUST be
// covered here (TestUopResetCoversAllFields enforces this by reflection:
// add a field without resetting it and the test fails).
//
//tvp:hotpath
func (u *uop) reset(seq uint64, sIdx int32, kind isa.UOpKind, class isa.Class, last bool, uSeq, cycle uint64, idx int32) {
	u.seq = seq
	u.uSeq = uSeq
	u.renameCycle = cycle
	u.ea = 0
	u.memDepSeq = 0
	u.flagSrcUSeq = 0
	u.srcs = [4]srcOperand{}
	u.robIdx = idx
	u.flagSrcIdx = noIdx
	u.sIdx = sIdx
	u.dst = 0
	u.kind = kind
	u.class = class
	u.state = stRenamed
	u.fu = 0
	u.nsrc = 0
	u.memSize = 0
	u.dstArch = 0
	u.elimKind = 0
	u.elimOrigin = 0
	u.last = last
	u.flagW = false
	u.flagR = false
	u.hasDst = false
	u.dstFP = false
	u.dstWide = false
	u.dstSpec = false
	u.freshDst = false
	u.eliminated = false
	u.moveBlocked = false
	u.vpUsed = false
	u.vpWide = false
	u.vpConsumed = false
	u.isBranch = false
	u.resolvedEarly = false
	u.isLoad = false
	u.isStore = false
	u.executedMem = false
}

// overlaps reports whether two accesses [a, a+as) and [b, b+bs) intersect.
func overlaps(a uint64, as uint8, b uint64, bs uint8) bool {
	return a < b+uint64(bs) && b < a+uint64(as)
}

// contains reports whether [b, b+bs) fully contains [a, a+as).
func contains(a uint64, as uint8, b uint64, bs uint8) bool {
	return b <= a && a+uint64(as) <= b+uint64(bs)
}
