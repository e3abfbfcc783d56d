// Package stats defines the counters collected during a timing simulation
// and the aggregation helpers (geometric/harmonic means, speedups) used by
// the experiment reports.
package stats

import (
	"math"
	"reflect"
)

// Sim holds every counter a single timing run produces. Counters only
// accumulate while stats collection is enabled (after warmup), mirroring
// the paper's 50M-instruction warmup discipline.
type Sim struct {
	// Progress.
	Cycles    uint64 // simulated cycles (post-warmup)
	ArchInsts uint64 // committed architectural instructions
	UOps      uint64 // committed µops

	// Fetch / frontend.
	FetchedInsts      uint64
	BranchLookups     uint64 // conditional branch predictions made
	BranchMispredicts uint64 // conditional direction mispredictions
	BTBMisses         uint64 // taken branches missing in the BTB
	IndirectMispreds  uint64 // indirect target mispredictions
	RASMispreds       uint64 // return address mispredictions

	// Value prediction.
	VPEligible      uint64 // committed VP-eligible instructions
	VPCorrectUsed   uint64 // used predictions that were correct
	VPIncorrectUsed uint64 // used predictions that were wrong (caused flush)
	VPTrainOnly     uint64 // predictions generated but not used (training)
	VPSilenced      uint64 // confident predictions dropped due to silencing
	VPWidePRFWrites uint64 // GVP-only: predictions written to the PRF

	// Rename-time eliminations (committed counts, architectural insts).
	ZeroIdiomElim  uint64 // 0-idiom eliminations (baseline DSR)
	OneIdiomElim   uint64 // 1-idiom eliminations (baseline DSR)
	MoveElim       uint64 // move eliminations (baseline DSR)
	MoveNotElim    uint64 // move idioms blocked by 64→32 width mismatch
	NineBitElim    uint64 // 9-bit signed integer idiom eliminations (TVP)
	SpSRElim       uint64 // speculative strength reductions
	SpSRZero       uint64 // SpSR reduced to zero-idiom
	SpSROne        uint64 // SpSR reduced to one-idiom
	SpSRMove       uint64 // SpSR reduced to move-idiom
	SpSRNop        uint64 // SpSR reduced to nop (incl. nop+NZCV)
	SpSRBranch     uint64 // SpSR-resolved branches (b.cond/cbz/tbz on known NZCV/value)
	SpSRCondSelect uint64 // SpSR'd csel/csinc/csneg

	// Execution-engine activity (Fig. 6 proxies).
	IntPRFReads  uint64 // integer physical register file read ports used
	IntPRFWrites uint64 // integer physical register file writes
	IQAdded      uint64 // µops dispatched into the instruction queue
	IQIssued     uint64 // µops issued from the instruction queue

	// Flushes and squashes.
	BranchFlushes   uint64 // pipeline redirects from branch mispredictions
	VPFlushes       uint64 // pipeline flushes from value mispredictions
	MemOrderFlushes uint64 // flushes from memory order violations
	SquashedUOps    uint64 // µops squashed by all flushes

	// Memory hierarchy.
	L1IAccesses, L1IMisses   uint64
	L1DAccesses, L1DMisses   uint64
	L2Accesses, L2Misses     uint64
	L3Accesses, L3Misses     uint64
	L1TLBMisses, L2TLBMisses uint64
	PrefetchesIssued         uint64
	PrefetchesUseful         uint64

	// Structural stalls (cycles a stage could not advance for a resource).
	ROBFullStalls  uint64
	IQFullStalls   uint64
	LQFullStalls   uint64
	SQFullStalls   uint64
	PRFEmptyStalls uint64
}

// Sub returns a-b field-wise (all counters are monotone uint64, so this
// yields the counters accumulated between two snapshots; it is how warmup
// is excluded from reported statistics).
func Sub(a, b *Sim) Sim {
	var out Sim
	va, vb, vo := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem(), reflect.ValueOf(&out).Elem()
	for i := 0; i < va.NumField(); i++ {
		vo.Field(i).SetUint(va.Field(i).Uint() - vb.Field(i).Uint())
	}
	return out
}

// IPC returns committed architectural instructions per cycle.
func (s *Sim) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ArchInsts) / float64(s.Cycles)
}

// Speedup returns the IPC ratio of s over base, as a percentage uplift
// (+4.67 means 4.67% faster).
func (s *Sim) Speedup(base *Sim) float64 {
	b := base.IPC()
	if b == 0 {
		return 0
	}
	return (s.IPC()/b - 1) * 100
}

// UopsPerInst returns the µop expansion ratio (Fig. 2 bars).
func (s *Sim) UopsPerInst() float64 {
	if s.ArchInsts == 0 {
		return 0
	}
	return float64(s.UOps) / float64(s.ArchInsts)
}

// VPCoverage returns correct-used predictions over VP-eligible
// instructions, the paper's coverage metric (§6.1).
func (s *Sim) VPCoverage() float64 {
	if s.VPEligible == 0 {
		return 0
	}
	return float64(s.VPCorrectUsed) / float64(s.VPEligible)
}

// VPAccuracy returns correct-used over all used predictions (§6.1).
func (s *Sim) VPAccuracy() float64 {
	used := s.VPCorrectUsed + s.VPIncorrectUsed
	if used == 0 {
		return 1
	}
	return float64(s.VPCorrectUsed) / float64(used)
}

// ElimFraction returns the fraction of committed architectural
// instructions removed at rename by the given counter.
func (s *Sim) ElimFraction(count uint64) float64 {
	if s.ArchInsts == 0 {
		return 0
	}
	return float64(count) / float64(s.ArchInsts)
}

// BranchMPKI returns conditional branch mispredictions per kilo-instruction.
func (s *Sim) BranchMPKI() float64 {
	if s.ArchInsts == 0 {
		return 0
	}
	return 1000 * float64(s.BranchMispredicts) / float64(s.ArchInsts)
}

// L1DMPKI returns L1D misses per kilo-instruction.
func (s *Sim) L1DMPKI() float64 {
	if s.ArchInsts == 0 {
		return 0
	}
	return 1000 * float64(s.L1DMisses) / float64(s.ArchInsts)
}

// Geomean returns the geometric mean of xs. It returns 0 for an empty
// slice and panics on non-positive inputs.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic("stats: Geomean of non-positive value")
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// GeomeanSpeedup aggregates per-benchmark speedup percentages the way the
// paper does: geometric mean of the ratios, expressed as a percentage.
func GeomeanSpeedup(pcts []float64) float64 {
	ratios := make([]float64, len(pcts))
	for i, p := range pcts {
		ratios[i] = 1 + p/100
	}
	return (Geomean(ratios) - 1) * 100
}

// HMean returns the harmonic mean of xs (used for mean IPC in Fig. 2).
func HMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic("stats: HMean of non-positive value")
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// AMean returns the arithmetic mean of xs.
func AMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
