// Package config defines the simulated machine configuration. Default()
// reproduces Table 2 of the paper: an 11-stage, 8-wide aggressive
// out-of-order core at a nominal 3 GHz, with the paper's cache hierarchy,
// predictors and rename optimizations. Experiment code derives variants
// (VP flavor, SpSR on/off, predictor budget, prefetcher on/off) from it.
package config

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// VPMode selects the value prediction flavor (§3, §6.1).
type VPMode int

const (
	// VPOff disables value prediction (the paper's baseline).
	VPOff VPMode = iota
	// MVP predicts only 0x0 and 0x1, written through hardwired physical
	// registers (§3.1).
	MVP
	// TVP predicts any 9-bit signed value via physical register name
	// inlining, and enables 9-bit signed integer idiom elimination (§3.2).
	TVP
	// GVP predicts arbitrary 64-bit values; predictions wider than 9 bits
	// are written to the PRF (§6.1).
	GVP
)

// String names the VP mode as in the paper's figures.
func (m VPMode) String() string {
	switch m {
	case VPOff:
		return "Baseline"
	case MVP:
		return "Min. VP"
	case TVP:
		return "Tar. VP"
	case GVP:
		return "Gen. VP"
	}
	return fmt.Sprintf("VPMode(%d)", int(m))
}

// ParseVPMode parses a VP mode name as the command-line tools and the
// daemon accept it, case-insensitively: "" (the baseline), off, none or
// baseline; mvp or min; tvp or tar; gvp or gen.
func ParseVPMode(s string) (VPMode, error) {
	switch strings.ToLower(s) {
	case "", "off", "none", "baseline":
		return VPOff, nil
	case "mvp", "min":
		return MVP, nil
	case "tvp", "tar":
		return TVP, nil
	case "gvp", "gen":
		return GVP, nil
	}
	return VPOff, fmt.Errorf("unknown VP mode %q (want off|mvp|tvp|gvp)", s)
}

// FuncUnit describes one execution pipe: which µop classes it accepts
// (bitmask over isa.Class) and whether it is pipelined.
type FuncUnit struct {
	// Name for diagnostics ("alu0", "fp3", ...).
	Name string
	// Classes is a bitmask: bit i set means isa.Class(i) can issue here.
	Classes uint32
	// Pipelined units accept a new µop every cycle; unpipelined ones
	// (the integer and FP dividers) block until the current op finishes.
	Pipelined bool
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int
	Assoc     int
	LineBytes int
	// LoadToUse is the hit latency in cycles (load-to-use for data
	// caches, fetch latency for the L1I).
	LoadToUse int
	// MSHRs is the number of miss status holding registers, in
	// 1..MaxMSHRs.
	MSHRs int
}

// MaxMSHRs bounds CacheConfig.MSHRs: the cache model keeps a level's
// MSHR occupancy in one 64-bit mask.
const MaxMSHRs = 64

// The pipeline's run-ahead frontend hands dynamic instructions to the
// timing core through a RunAheadSlots-slot ring, in RunAheadChunk-slot
// chunks, and takes a chunk back only once every instruction in it has
// committed. An instruction is in flight from fetch to commit: in the
// fetch queue, in the DecodeQueue-µop decode queue, or in the ROB.
const (
	RunAheadSlots = 4096
	RunAheadChunk = 256
	DecodeQueue   = 32
	// MaxWindow bounds ROBSize + FetchQueue + DecodeQueue: the window
	// must fit the ring with one chunk to spare, or fetch would wait for
	// a chunk the frontend has no free slots to fill.
	MaxWindow = RunAheadSlots - RunAheadChunk
)

// ErrWindowTooLarge reports a machine whose in-flight window exceeds
// MaxWindow.
var ErrWindowTooLarge = errors.New("config: in-flight window exceeds the run-ahead ring")

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// TLBConfig describes one TLB level.
type TLBConfig struct {
	Entries int
	Assoc   int
	Latency int // added cycles on hit (0 for L1 TLBs per Table 2)
}

// VPConfig holds value predictor parameters (Table 2, VP rows).
type VPConfig struct {
	Mode VPMode
	// TableLog2 gives log2 of the number of entries of the base table
	// (index 0) followed by the tagged tables. Paper: 12,9,9,8,8,8,7,7.
	TableLog2 []uint
	// TagBits gives the tag width per table, parallel to TableLog2; the
	// base table's "tag" (4 bits in the paper's sizing) is kept for the
	// storage model.
	TagBits []uint
	// MinHist/MaxHist bound the geometric global-history lengths of the
	// tagged tables (paper: 2/128).
	MinHist, MaxHist int
	// FPCBits is the width of the Forward Probabilistic confidence
	// Counter (3 in the paper); a prediction is used only when saturated.
	FPCBits uint
	// FPCInvProb is the inverse probability of an FPC increment (16 in
	// the paper: 1/16 probability).
	FPCInvProb int
	// UsefulBits is the width of the TAGE-style useful field on tagged
	// tables (2 in the paper).
	UsefulBits uint
	// SilenceCycles silences the predictor after a value misprediction to
	// prevent livelock (§3.4.1; paper uses 250, with 15 studied).
	SilenceCycles int
	// ValidateAtRetire moves prediction validation from the functional
	// units to retirement, the EOLE-style alternative the paper
	// contrasts against (§2.2, §6.2): it needs no comparators in the
	// execution lanes, but each validation costs an extra PRF read (the
	// computed result must be read back to compare against the FIFO
	// entry) and mispredictions are detected later, lengthening the
	// flush shadow.
	ValidateAtRetire bool
	// DynamicSilence enables the adaptive silencing scheme the paper
	// suggests as future work (§3.4.1: "a dynamic scheme would likely be
	// beneficial"): the window starts at SilenceCycles, doubles on every
	// misprediction up to 8× and halves back (floor 15 cycles) after
	// every 1024 correct trainings, so quiet phases pay a short window
	// and misprediction storms back off exponentially.
	DynamicSilence bool
	// NeverConfident forces every prediction's FPC confidence to read as
	// unsaturated, so the predictor keeps training but the pipeline never
	// uses a prediction. A machine with VP enabled and NeverConfident set
	// must produce timing bit-identical to VP off (modulo the train-only
	// counter) — the differential harness's metamorphic invariant.
	NeverConfident bool
	// Seed seeds the FPC's probabilistic counter PRNG.
	Seed uint64
}

// Machine is the full simulated machine configuration.
type Machine struct {
	// Frontend (Table 2 Fetch/Decode/Rename rows).
	FetchWidth         int // instructions fetched per cycle from the line buffer
	FetchQueue         int // fetch queue entries (instructions)
	FetchToDecode      int // cycles
	DecodeWidth        int
	DecodeToRename     int // cycles
	RenameWidth        int
	RenameToDispatch   int // cycles
	TakenBranchPenalty int // fetch bubble cycles on a predicted-taken branch
	DecodeMistarget    int // extra redirect cycles for BTB-missed taken branches

	// Backend geometry (Table 2 Dispatch/Commit row).
	DispatchWidth int
	CommitWidth   int
	ROBSize       int
	IQSize        int
	LQSize        int
	SQSize        int
	IntPRF        int
	FPPRF         int

	// Issue (Table 2 Issue row).
	IssueWidth int
	FUs        []FuncUnit
	// Latencies per µop class; unpipelined classes occupy their unit.
	IntALULat, IntMulLat, IntDivLat int
	FPALULat, FPMulLat, FPMacLat    int
	FPDivLat                        int
	BranchLat                       int
	StoreLat                        int // store address/data execution latency

	// Branch prediction (Table 2 row).
	BPTables        int // tagged TAGE tables (paper: 15)
	BPBaseLog2      uint
	BPTaggedLog2    uint
	BPMinHist       int
	BPMaxHist       int
	BPTagBits       uint
	BTBEntries      int
	BTBAssoc        int
	IndirectEntries int
	RASEntries      int

	// Value prediction.
	VP VPConfig

	// Rename optimizations (§5: baseline includes ME and 0/1-idiom).
	MoveElim     bool
	ZeroOneIdiom bool
	NineBitIdiom bool // requires TVP/GVP register inlining hardware
	SpSR         bool

	// Memory hierarchy (Table 2 Caches/TLBs/Prefetchers rows).
	L1I, L1D, L2, L3 CacheConfig
	L1ITLB, L1DTLB   TLBConfig
	L2TLB            TLBConfig
	PageWalkLat      int
	MemLat           int // main memory latency (cycles); gem5-like DRAM turnaround
	StridePrefetch   bool
	StrideDegree     int
	AMPMPrefetch     bool

	// Memory dependence prediction (Store Sets).
	SSITEntries int
	LFSTEntries int

	// Misc.
	MemOrderFlushPenalty int

	// CrossCheck enables the shadow-emulator retire checker: the core
	// steps a second functional emulator in lockstep at retirement and
	// panics with a *pipeline.Divergence the moment the retired
	// architectural state (PC, result, flags, memory value, or a used
	// value prediction) departs from the oracle. Purely diagnostic: it
	// never influences timing, and costs one nil-check per committed µop
	// when disabled.
	CrossCheck bool

	// DisableCycleSkip turns off the event-driven cycle-skipping fast
	// path: when every stage is provably idle, the core normally computes
	// the next wakeup cycle from in-flight latency events and advances
	// the cycle counter in one jump. Skipping is exact — all counters and
	// results are bit-identical either way (asserted by
	// TestCycleSkipEquivalence) — so this switch exists only for
	// equivalence testing and as a diagnostic escape hatch.
	DisableCycleSkip bool

	// DisableWakeupScoreboard falls back to the polling issue loop: every
	// IQ entry re-evaluates its source readiness each cycle instead of
	// producers pushing readiness into registered waiters. The scoreboard
	// is exact — issue order, stats and CPI stacks are bit-identical either
	// way (asserted by TestIssueScoreboardEquivalence and the
	// FuzzMetamorphic scoreboard mutation) — so this switch exists only for
	// equivalence testing and as a diagnostic escape hatch.
	DisableWakeupScoreboard bool
}

// Class bit helpers for FuncUnit masks. These mirror isa.Class values but
// are kept numeric here to avoid an import cycle; internal/pipeline
// asserts the correspondence in its tests.
const (
	CapNop    uint32 = 1 << 0
	CapIntALU uint32 = 1 << 1
	CapIntMul uint32 = 1 << 2
	CapIntDiv uint32 = 1 << 3
	CapFPALU  uint32 = 1 << 4
	CapFPMul  uint32 = 1 << 5
	CapFPDiv  uint32 = 1 << 6
	CapLoad   uint32 = 1 << 7
	CapStore  uint32 = 1 << 8
	CapBranch uint32 = 1 << 9
)

// Default returns the paper's Table 2 machine: 11-stage pipeline, 3 GHz,
// 315-entry ROB, 92-entry IQ, 74/53 LQ/SQ, 292+292 physical registers,
// 32KB TAGE, optional VTAGE, three-level cache hierarchy with stride and
// AMPM prefetchers, and Store Sets memory dependence prediction. Value
// prediction is off; enable it with WithVP.
func Default() *Machine {
	m := &Machine{
		FetchWidth:         16,
		FetchQueue:         32,
		FetchToDecode:      3,
		DecodeWidth:        8,
		DecodeToRename:     1,
		RenameWidth:        8,
		RenameToDispatch:   2,
		TakenBranchPenalty: 1,
		DecodeMistarget:    4,

		DispatchWidth: 8,
		CommitWidth:   8,
		ROBSize:       315,
		IQSize:        92,
		LQSize:        74,
		SQSize:        53,
		IntPRF:        292,
		FPPRF:         292,

		IssueWidth: 15,
		IntALULat:  1,
		IntMulLat:  3,
		IntDivLat:  20,
		FPALULat:   3,
		FPMulLat:   4,
		FPMacLat:   5,
		FPDivLat:   12,
		BranchLat:  1,
		StoreLat:   1,

		BPTables:        15,
		BPBaseLog2:      13,
		BPTaggedLog2:    10,
		BPMinHist:       5,
		BPMaxHist:       640,
		BPTagBits:       11,
		BTBEntries:      8192,
		BTBAssoc:        4,
		IndirectEntries: 1024,
		RASEntries:      32,

		VP: VPConfig{
			Mode:          VPOff,
			TableLog2:     []uint{12, 9, 9, 8, 8, 8, 7, 7},
			TagBits:       []uint{4, 9, 9, 10, 10, 11, 11, 12},
			MinHist:       2,
			MaxHist:       128,
			FPCBits:       3,
			FPCInvProb:    16,
			UsefulBits:    2,
			SilenceCycles: 250,
			Seed:          0x7615_0705,
		},

		MoveElim:     true,
		ZeroOneIdiom: true,

		L1I: CacheConfig{SizeBytes: 128 << 10, Assoc: 8, LineBytes: 64, LoadToUse: 1, MSHRs: 8},
		L1D: CacheConfig{SizeBytes: 128 << 10, Assoc: 8, LineBytes: 64, LoadToUse: 4, MSHRs: 56},
		L2:  CacheConfig{SizeBytes: 1 << 20, Assoc: 8, LineBytes: 64, LoadToUse: 12, MSHRs: 64},
		L3:  CacheConfig{SizeBytes: 8 << 20, Assoc: 16, LineBytes: 64, LoadToUse: 37, MSHRs: 64},

		L1ITLB:      TLBConfig{Entries: 256, Assoc: 1, Latency: 0},
		L1DTLB:      TLBConfig{Entries: 256, Assoc: 1, Latency: 0},
		L2TLB:       TLBConfig{Entries: 3072, Assoc: 12, Latency: 4},
		PageWalkLat: 40,
		MemLat:      160,

		StridePrefetch: true,
		StrideDegree:   4,
		AMPMPrefetch:   true,

		SSITEntries: 2048,
		LFSTEntries: 2048,

		MemOrderFlushPenalty: 5,
	}
	m.FUs = defaultFUs()
	return m
}

func defaultFUs() []FuncUnit {
	fus := make([]FuncUnit, 0, 16)
	add := func(name string, classes uint32, pipelined bool) {
		fus = append(fus, FuncUnit{Name: name, Classes: classes | CapNop, Pipelined: pipelined})
	}
	// 4 simple ALUs (also execute branches, as is conventional).
	for i := 0; i < 4; i++ {
		add(fmt.Sprintf("alu%d", i), CapIntALU|CapBranch, true)
	}
	// 2 (simple ALU + IntMul).
	for i := 0; i < 2; i++ {
		add(fmt.Sprintf("mul%d", i), CapIntALU|CapIntMul|CapBranch, true)
	}
	// 1 IntDiv, not pipelined.
	add("div0", CapIntDiv, false)
	// 3 (simple FP + FP Mul).
	for i := 0; i < 3; i++ {
		add(fmt.Sprintf("fp%d", i), CapFPALU|CapFPMul, true)
	}
	// 1 (simple FP + FP Mul + FP Div), divider portion not pipelined.
	add("fpdiv0", CapFPALU|CapFPMul|CapFPDiv, false)
	// 2 load pipes, 2 store pipes.
	for i := 0; i < 2; i++ {
		add(fmt.Sprintf("ld%d", i), CapLoad, true)
	}
	for i := 0; i < 2; i++ {
		add(fmt.Sprintf("st%d", i), CapStore, true)
	}
	return fus
}

// Fingerprint returns a canonical content hash of the configuration.
// Machine contains only value fields and slices of value types, so the
// %#v rendering is a complete, deterministic serialization: two
// configurations share a fingerprint exactly when every field (including
// every table geometry and functional-unit entry) is equal. The
// experiment run cache (internal/simcache) keys simulation results on it.
func (m *Machine) Fingerprint() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", *m)))
	return hex.EncodeToString(sum[:])
}

// Clone returns a deep copy of the machine configuration.
func (m *Machine) Clone() *Machine {
	c := *m
	c.FUs = append([]FuncUnit(nil), m.FUs...)
	c.VP.TableLog2 = append([]uint(nil), m.VP.TableLog2...)
	c.VP.TagBits = append([]uint(nil), m.VP.TagBits...)
	return &c
}

// WithVP returns a copy configured for the given VP flavor. TVP and GVP
// additionally enable 9-bit signed idiom elimination, which shares the
// register inlining hardware (§3.2.2, §6.1).
func (m *Machine) WithVP(mode VPMode) *Machine {
	c := m.Clone()
	c.VP.Mode = mode
	c.NineBitIdiom = mode == TVP || mode == GVP
	return c
}

// WithSpSR returns a copy with speculative strength reduction enabled or
// disabled.
func (m *Machine) WithSpSR(on bool) *Machine {
	c := m.Clone()
	c.SpSR = on
	return c
}

// WithVPBudgetScale returns a copy whose value predictor tables are scaled
// by factor (a power of two: 0.5, 1, 2, ...), keeping the number of tables
// and history lengths fixed, as the Table 3 sensitivity study prescribes
// ("same number of tables/history bits, only table size is modified").
func (m *Machine) WithVPBudgetScale(log2Delta int) *Machine {
	c := m.Clone()
	for i := range c.VP.TableLog2 {
		n := int(c.VP.TableLog2[i]) + log2Delta
		if n < 4 {
			n = 4
		}
		c.VP.TableLog2[i] = uint(n)
	}
	return c
}

// Validate checks internal consistency and returns a descriptive error for
// the first problem found.
func (m *Machine) Validate() error {
	switch {
	case m.FetchWidth <= 0 || m.DecodeWidth <= 0 || m.RenameWidth <= 0 ||
		m.DispatchWidth <= 0 || m.CommitWidth <= 0 || m.IssueWidth <= 0:
		return fmt.Errorf("config: non-positive pipeline width")
	case m.ROBSize <= 0 || m.IQSize <= 0 || m.LQSize <= 0 || m.SQSize <= 0 || m.FetchQueue <= 0:
		return fmt.Errorf("config: non-positive window structure size")
	case m.ROBSize+m.FetchQueue+DecodeQueue > MaxWindow:
		return fmt.Errorf("%w: ROB %d + fetch queue %d + decode queue %d > %d",
			ErrWindowTooLarge, m.ROBSize, m.FetchQueue, DecodeQueue, MaxWindow)
	case m.IntPRF < 2*m.RenameWidth || m.FPPRF < 2*m.RenameWidth:
		return fmt.Errorf("config: physical register file too small")
	case len(m.FUs) == 0:
		return fmt.Errorf("config: no functional units")
	case len(m.VP.TableLog2) != len(m.VP.TagBits):
		return fmt.Errorf("config: VP TableLog2/TagBits length mismatch (%d vs %d)",
			len(m.VP.TableLog2), len(m.VP.TagBits))
	case m.VP.Mode != VPOff && len(m.VP.TableLog2) < 2:
		return fmt.Errorf("config: VTAGE needs a base table and at least one tagged table")
	}
	for _, l := range []struct {
		name string
		c    CacheConfig
	}{{"L1I", m.L1I}, {"L1D", m.L1D}, {"L2", m.L2}, {"L3", m.L3}} {
		if l.c.Sets() <= 0 || l.c.SizeBytes%(l.c.LineBytes*l.c.Assoc) != 0 {
			return fmt.Errorf("config: cache geometry %v not a whole number of sets", l.c)
		}
		if l.c.MSHRs < 1 || l.c.MSHRs > MaxMSHRs {
			return fmt.Errorf("config: %s has %d MSHRs, want 1..%d", l.name, l.c.MSHRs, MaxMSHRs)
		}
	}
	if m.NineBitIdiom && m.VP.Mode == MVP {
		return fmt.Errorf("config: 9-bit idiom elimination requires TVP/GVP register inlining")
	}
	return nil
}
