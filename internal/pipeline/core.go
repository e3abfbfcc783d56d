package pipeline

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/memdep"
	"repro/internal/prefetch"
	"repro/internal/prog"
	"repro/internal/rename"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/vp"
)

const (
	// redirectPenalty is the fixed pipe-restart bubble after a branch
	// resolves against its prediction or a flush redirects fetch; the
	// refill of the frontend stages provides the rest of the penalty
	// naturally.
	redirectPenalty = 2
	// neverReady marks an unproduced physical register.
	neverReady = ^uint64(0)
	// deadlockWindow is a debugging aid: the core panics if no µop
	// commits for this many cycles, which always indicates a model bug.
	deadlockWindow = 200000
)

// fqEntry is a fetched architectural instruction waiting for decode.
// Pointer-free (tvplint hotstruct): the dynamic record is re-reached
// through the run-ahead ring by seq; the static index feeds the crack
// table.
//
//tvp:hotstruct
type fqEntry struct {
	seq        uint64
	fetchCycle uint64
	sIdx       int32
}

// dqEntry is a decoded µop waiting for rename. Pointer-free like fqEntry.
//
//tvp:hotstruct
type dqEntry struct {
	seq         uint64
	decodeCycle uint64
	sIdx        int32
	kind        isa.UOpKind
	class       isa.Class
	last        bool
}

// Core is one simulated out-of-order core attached to a dynamic
// instruction stream.
type Core struct {
	cfg  *config.Machine
	ra   runAhead   // the instruction source and its producer (runahead.go)
	code []isa.Inst // program text (static instructions, indexed by uop.sIdx)
	st   stats.Sim

	// Value predictor tables and memory system. The branch predictors
	// and VTAGE's history belong to the run-ahead producer.
	vpred  *vp.Predictor
	ssets  *memdep.StoreSets
	mem    *cache.Hierarchy
	tlbs   *tlb.Hierarchy
	ren    *rename.Renamer
	engine rename.Engine

	cycle   uint64
	uSeqCtr uint64
	skipOK  bool   // event-driven cycle skipping enabled (cached off cfg)
	skipped uint64 // cycles advanced by trySkip (diagnostic, not a stat)

	// Frontend state.
	fetchQ          ring[fqEntry]
	decodeQ         ring[dqEntry]
	fetchStallUntil uint64
	waitBranchSeq   uint64 // fetch stalled until this branch resolves (+1); 0 = none
	curFetchLine    uint64
	fetchedTo       uint64 // one past the newest seq ever fetched: a fetch below it is a refetch
	haltSeen        bool
	crack           []crackStatic // per static instruction, precomputed at build

	// Backend state. The scheduler-side structures hold ROB slot indices
	// (int32) instead of *uop pointers: the issue/wakeup scans then walk
	// dense index arrays plus the ROB ring itself, which halves their
	// footprint and keeps appends free of GC write barriers.
	rob []uop // ring buffer
	// robReady is the struct-of-arrays split of the µops' ready cycles
	// (indexed by ROB slot, lockstep with rob): the complete/commit/skip
	// scans poll only this dense uint64 array instead of dragging each
	// 128-byte uop line through the cache to read one field.
	robReady []uint64
	robHead  int
	robTail  int
	robCnt   int
	dispPtr  int // ring index of the next µop to dispatch
	dispCnt  int // µops renamed but not yet dispatched
	iq       []int32
	iqWake   []uint64 // per-iq-entry issue lower bound (lockstep with iq); 0 = recheck every cycle
	// Wakeup scoreboard (scoreboard.go): the event-driven replacement for
	// the polling iq/iqWake scan, selected by useSB. Producers keep
	// singly-linked waiter lists of IQ entries (per physical register and
	// per ROB slot for flag/memdep obstacles); issue scans only readyMask.
	// The polling structures above are retained verbatim as the oracle for
	// TestIssueScoreboardEquivalence and DisableWakeupScoreboard runs.
	useSB        bool
	sbRecheck    bool     // GVP only: re-run srcsReady before issuing (repair can raise bounds)
	schedState   []uint8  // per ROB slot: sNone / sWaiting / sReady
	schedWake    []uint64 // per ROB slot: issue lower bound while sReady
	waitNext     []int32  // per ROB slot: next waiter in the producer's list
	waitKind     []uint8  // per ROB slot: which list the entry waits on (wkInt/wkFP/wkSlot)
	waitKey      []int32  // per ROB slot: list key (phys reg name or producer ROB slot)
	intWaitHead  []int32  // per int phys reg: head of its waiter list
	fpWaitHead   []int32  // per fp phys reg: head of its waiter list
	slotWaitHead []int32  // per ROB slot: waiters on a flag producer or pending store
	readyMask    []uint64 // per ROB slot, one bit: set iff sReady; scanned in ring order from robHead
	wheelHead    []int32  // per wake-wheel slot: head of the entries maturing that cycle (linked via waitNext)
	wheelBits    []uint64 // per wake-wheel slot, one bit: set iff the slot is non-empty
	iqCnt        int      // scheduler occupancy under useSB (mirrors len(iq))
	lq           queue[int32]
	sq           queue[int32]
	execL        []int32
	intReadyAt   []uint64
	fpReadyAt    []uint64
	predictedReg []int32 // GVP: ROB slot of the in-flight wide prediction per physical reg; noIdx = none
	lastFlagWIdx int32   // ROB slot of the youngest renamed flag writer; noIdx = none
	lastFlagWSeq uint64

	fus              fuState
	flushedThisCycle bool
	tracer           Tracer
	probe            Probe
	hooks            Probe // probe's event hooks, armed at the warmup boundary

	// Top-down CPI-stack accounting (cpistack.go). acct is nil until the
	// warmup boundary of a run with accounting requested (EnableCPIStack
	// or an attached Probe), so the detached hot path pays one nil-check
	// per cycle. redirectCause is maintained unconditionally (flush paths
	// are cold) and read only by the classifier.
	cpiOn         bool
	acct          *cpiAcct
	redirectCause uint8

	committed   uint64 // committed architectural instructions (total)
	lastCommitC uint64 // cycle of the last commit (deadlock detection)

	// stopCheck, when non-nil, is polled every stopCheckCycles cycles by
	// Run; true abandons the run with Result.Stopped set (cooperative
	// per-request cancellation for the tvpd serving layer).
	stopCheck func() bool

	// Differential validation (config.Machine.CrossCheck) and its fault
	// injector (crosscheck.go). xcheck is nil when disabled.
	xcheck      *crossCheck
	bugArmed    bool
	bugMask     uint64
	bugSeqPlus1 uint64 // seq+1 of the injected corruption; 0 = none yet
}

// New builds a core for the given machine over the given program.
func New(cfg *config.Machine, p *prog.Program) *Core {
	return NewFromEmulator(cfg, emu.New(p))
}

// NewFromEmulator builds a core over an existing emulator, which may be
// mid-program. New calls it with a fresh emulator; the fuzz tests and
// cmd/tvpbench (which resumes from workload.Checkpoint to price a
// functional warmup) pass their own. The emulator is the core's only
// instruction source. The cross-check shadow is snapshotted from it
// here; from then on the emulator belongs to the core's run-ahead
// producer (runahead.go), which each Run starts and joins, and which also
// runs the branch predictors. Sequence numbering continues from the
// emulator's position.
func NewFromEmulator(cfg *config.Machine, e *emu.Emulator) *Core {
	p := e.Prog
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		cfg:  cfg,
		code: p.Code,
	}
	c.ra.init(cfg, e)
	c.fetchedTo = c.ra.cursor
	if cfg.VP.Mode != config.VPOff {
		c.vpred = vp.New(cfg.VP)
	}
	c.ssets = memdep.New(cfg.SSITEntries, cfg.LFSTEntries)
	var l1dPF, l2PF cache.Prefetcher
	if cfg.StridePrefetch {
		l1dPF = prefetch.NewStride(256, cfg.StrideDegree, cfg.L1D.LineBytes)
	}
	if cfg.AMPMPrefetch {
		l2PF = prefetch.NewAMPM(128, 2, cfg.L2.LineBytes)
	}
	c.mem = cache.NewHierarchy(cfg, l1dPF, l2PF)
	c.tlbs = tlb.NewHierarchy(cfg)
	c.ren = rename.NewRenamer(cfg.IntPRF, cfg.FPPRF)
	c.engine = rename.Engine{
		ZeroOneIdiom: cfg.ZeroOneIdiom,
		MoveElim:     cfg.MoveElim,
		NineBit:      cfg.NineBitIdiom,
		SpSR:         cfg.SpSR,
		Inline:       cfg.VP.Mode == config.TVP || cfg.VP.Mode == config.GVP,
	}
	c.rob = make([]uop, cfg.ROBSize)
	c.robReady = make([]uint64, cfg.ROBSize)
	c.iq = make([]int32, 0, cfg.IQSize)
	c.iqWake = make([]uint64, 0, cfg.IQSize)
	// execL holds issued-but-incomplete µops, bounded by the ROB;
	// preallocating keeps doIssue's append off the heap (hotpathalloc).
	c.execL = make([]int32, 0, cfg.ROBSize)
	c.lq.buf = make([]int32, 0, cfg.LQSize)
	c.sq.buf = make([]int32, 0, cfg.SQSize)
	c.lastFlagWIdx = noIdx
	// Wakeup scoreboard arrays (scoreboard.go): all per-ROB-slot or
	// per-physical-register, preallocated once; list heads start empty.
	// The PRF-ready and scoreboard arrays are carved from one backing
	// allocation per element type to keep core construction cheap:
	// bench-guard counts whole-run allocs/op, and per-slice makes here
	// showed up against it.
	c.useSB = !cfg.DisableWakeupScoreboard
	// Only GVP can raise a concrete ready time after the scoreboard has
	// cached it (wide-prediction repair rewrites intReadyAt at validation,
	// backend.go validateVP); every other producer writes its ready time
	// exactly once. So outside GVP a schedWake bound that has arrived is
	// the truth and sbIssue skips the srcsReady re-check.
	c.sbRecheck = cfg.VP.Mode == config.GVP
	u64 := make([]uint64, cfg.IntPRF+cfg.FPPRF+cfg.ROBSize+(cfg.ROBSize+63)/64+wheelSpan/64)
	c.intReadyAt, u64 = u64[:cfg.IntPRF:cfg.IntPRF], u64[cfg.IntPRF:]
	c.fpReadyAt, u64 = u64[:cfg.FPPRF:cfg.FPPRF], u64[cfg.FPPRF:]
	c.schedWake, u64 = u64[:cfg.ROBSize:cfg.ROBSize], u64[cfg.ROBSize:]
	nrm := (cfg.ROBSize + 63) / 64
	c.readyMask, u64 = u64[:nrm:nrm], u64[nrm:]
	c.wheelBits = u64
	i32 := make([]int32, 3*cfg.ROBSize+2*cfg.IntPRF+cfg.FPPRF+wheelSpan)
	c.predictedReg, i32 = i32[:cfg.IntPRF:cfg.IntPRF], i32[cfg.IntPRF:]
	c.waitNext, i32 = i32[:cfg.ROBSize:cfg.ROBSize], i32[cfg.ROBSize:]
	c.waitKey, i32 = i32[:cfg.ROBSize:cfg.ROBSize], i32[cfg.ROBSize:]
	c.slotWaitHead, i32 = i32[:cfg.ROBSize:cfg.ROBSize], i32[cfg.ROBSize:]
	c.intWaitHead, i32 = i32[:cfg.IntPRF:cfg.IntPRF], i32[cfg.IntPRF:]
	c.fpWaitHead, i32 = i32[:cfg.FPPRF:cfg.FPPRF], i32[cfg.FPPRF:]
	c.wheelHead = i32
	u8 := make([]uint8, 2*cfg.ROBSize)
	c.schedState, c.waitKind = u8[:cfg.ROBSize:cfg.ROBSize], u8[cfg.ROBSize:]
	for i := range c.predictedReg {
		c.predictedReg[i] = noIdx
	}
	for i := range c.intWaitHead {
		c.intWaitHead[i] = noIdx
	}
	for i := range c.fpWaitHead {
		c.fpWaitHead[i] = noIdx
	}
	for i := range c.slotWaitHead {
		c.slotWaitHead[i] = noIdx
	}
	for i := range c.wheelHead {
		c.wheelHead[i] = noIdx
	}
	// Cracking depends only on the static instruction, so the decode
	// stage's per-µop switch work is hoisted here, once per text entry.
	// The PC is static too (prog.PC is a pure function of the index), so
	// hot-path consumers (store-set training, probe hooks, CPI hooks) read
	// it from here instead of touching the dynamic record.
	c.crack = make([]crackStatic, len(p.Code))
	for i := range p.Code {
		in := &p.Code[i]
		plan, flags := srcPlanOf(in), crackFlagsOf(in)
		// The reduction engine inspects both integer operands regardless
		// of the source plan, so decide-eligible µops always read them.
		need := plan & (spN | spM)
		if flags&cfDecide != 0 {
			need = spN | spM
		}
		c.crack[i] = crackStatic{
			pc:    prog.PC(i),
			class: isa.OpClass(in.Op),
			two:   isa.CrackCount(in) == 2,
			fpMac: in.Op == isa.FMADD,
			plan:  plan,
			flags: flags,
			need:  need,
		}
	}
	c.fuSetup()
	c.fetchQ = newRing[fqEntry](cfg.FetchQueue)
	c.decodeQ = newRing[dqEntry](dqCap)
	c.curFetchLine = ^uint64(0)
	c.skipOK = !cfg.DisableCycleSkip
	if cfg.CrossCheck {
		// Snapshot before Run starts the producer and it advances the
		// emulator, so the shadow starts from exactly the state
		// retirement replays.
		c.xcheck = &crossCheck{shadow: e.Snapshot().Restore()}
	}
	return c
}

// Result is the outcome of a simulation run. It is the one result type:
// report.Execute, the report run cache and tvp.Run all hand it on as the
// core returned it.
type Result struct {
	// Stats holds the post-warmup counters.
	Stats     stats.Sim
	Cycles    uint64 // total cycles including warmup
	Committed uint64 // total committed architectural instructions
	// Skipped counts the cycles absorbed by event-driven skipping
	// (SkippedCycles), warmup included.
	Skipped uint64
	Halted  bool // the program ran to completion
	// Stopped reports that the run was abandoned early by the stop check
	// (SetStopCheck); the stats cover only the simulated prefix and must
	// not be cached or served as the point's result.
	Stopped bool
	// CPI is the post-warmup commit-slot attribution (zero unless
	// EnableCPIStack was called or a Probe was attached). Invariant:
	// CPI.Total() == Stats.Cycles × CommitWidth, exactly.
	CPI stats.CPIStack
	// Silenced reports that the value predictor was silenced at least
	// once, warmup included (vp.Predictor.EverSilenced).
	Silenced bool
}

// stopCheckCycles is how often Run polls the stop check: rarely enough
// that the poll is free against ~10^3 simulated cycles of work, often
// enough that a canceled request abandons its run within microseconds of
// host time.
const stopCheckCycles = 4096

// SetStopCheck installs a cooperative cancellation hook: Run polls fn
// every stopCheckCycles simulated cycles and abandons the run (returning
// Result.Stopped) when it reports true. The serving layer points fn at a
// request context so per-request deadlines reach into the cycle loop.
// With no hook installed the loop pays one nil-check per cycle.
func (c *Core) SetStopCheck(fn func() bool) { c.stopCheck = fn }

// Run simulates until maxInsts architectural instructions have committed
// (post-warmup instructions count toward stats), or until the program
// halts. warmup instructions commit before stats collection begins. The
// run-ahead producer runs on its own goroutine for exactly the duration
// of Run.
func (c *Core) Run(warmup, maxInsts uint64) Result {
	c.ra.start()
	defer c.ra.stop()
	var warmSnap stats.Sim
	warmed := warmup == 0
	stopped := false
	stopAt := c.cycle + stopCheckCycles
	// Interval sampling (telemetry): probeNext is the committed-
	// instruction count of the next sample, 0 while sampling is off, so
	// the probe-less hot loop pays a single always-false comparison.
	var probeEvery, probeNext uint64
	if warmed {
		probeEvery, probeNext = c.armObservers()
	}
	for {
		if !warmed && c.committed >= warmup {
			c.syncMemStats()
			warmSnap = c.st
			warmed = true
			probeEvery, probeNext = c.armObservers()
		}
		if probeNext != 0 && c.committed >= probeNext {
			c.syncMemStats()
			c.cpiSample()
			c.probe.Sample(c.committed, c.cycle, &c.st)
			probeNext = c.committed + probeEvery
		}
		if c.committed >= warmup+maxInsts {
			break
		}
		if c.haltSeen && c.robCnt == 0 && c.dispCnt == 0 {
			break
		}
		if c.stopCheck != nil && c.cycle >= stopAt {
			if c.stopCheck() {
				stopped = true
				break
			}
			stopAt = c.cycle + stopCheckCycles
		}
		c.step()
	}
	if !warmed {
		warmSnap = stats.Sim{} // program shorter than warmup: count it all
	}
	c.syncMemStats()
	c.cpiSample() // tail CPI snapshot, before the tail counter sample
	if c.probe != nil {
		c.probe.Sample(c.committed, c.cycle, &c.st) // tail sample
	}
	res := Result{
		Cycles:    c.cycle,
		Committed: c.committed,
		Skipped:   c.skipped,
		Halted:    c.haltSeen && c.robCnt == 0,
		Stopped:   stopped,
		Silenced:  c.vpred != nil && c.vpred.EverSilenced(),
	}
	if c.acct != nil {
		res.CPI = c.acct.st
	}
	if c.xcheck != nil && res.Halted {
		c.xcheck.finish()
	}
	res.Stats = stats.Sub(&c.st, &warmSnap)
	return res
}

// step advances the machine by one cycle — or, when every stage is
// provably idle, first jumps the cycle counter to the next wake event
// (skip.go) and runs the stages there.
//
//tvp:hotpath
func (c *Core) step() {
	// Mature the wake wheel before trySkip (and again after a jump), so
	// the ready mask is exact for this cycle's skip decision and issue.
	if c.useSB {
		c.wheelAdvance()
	}
	if c.skipOK {
		n := c.cycle
		c.trySkip()
		if c.useSB && c.cycle != n {
			c.wheelAdvance()
		}
	}
	if c.acct != nil {
		c.cpiBegin()
	}
	c.complete()
	c.commit()
	c.issue()
	c.dispatch()
	c.renameStage()
	c.decode()
	c.fetch()
	if c.acct != nil {
		c.cpiAccount()
	}
	c.cycle++
	c.st.Cycles++
	if c.cycle-c.lastCommitC > deadlockWindow {
		panic(fmt.Sprintf("pipeline: no commit for %d cycles at cycle %d (rob=%d iq=%d head-state=%v)",
			uint64(deadlockWindow), c.cycle, c.robCnt, c.iqCount(), c.headState()))
	}
}

// instOf returns the static instruction of a µop.
//
//tvp:hotpath
func (c *Core) instOf(u *uop) *isa.Inst { return &c.code[u.sIdx] }

// iqCount returns the scheduler occupancy under either issue scheme.
//
//tvp:hotpath
func (c *Core) iqCount() int {
	if c.useSB {
		return c.iqCnt
	}
	return len(c.iq)
}

func (c *Core) headState() string {
	if c.robCnt == 0 {
		return "empty"
	}
	u := &c.rob[c.robHead]
	s := fmt.Sprintf("seq=%d op=%v kind=%d state=%d ready=%d", u.seq, c.instOf(u).Op, u.kind, u.state, c.robReady[c.robHead])
	for i := 0; i < int(u.nsrc); i++ {
		src := u.srcs[i]
		if src.fp {
			s += fmt.Sprintf(" fp%v@%d", src.name, c.fpReadyAt[src.name])
		} else {
			s += fmt.Sprintf(" %v@%d", src.name, c.intReadyAt[src.name])
		}
	}
	if u.memDepSeq != 0 {
		s += fmt.Sprintf(" memdep=%d pending=%v", u.memDepSeq-1, c.storePending(u.memDepSeq-1))
	}
	if u.flagR && u.flagSrcIdx != noIdx {
		if fs := &c.rob[u.flagSrcIdx]; fs.uSeq == u.flagSrcUSeq {
			s += fmt.Sprintf(" flagdep=%d@%d", fs.seq, c.robReady[u.flagSrcIdx])
		}
	}
	return s
}

// SkippedCycles returns the number of cycles the event-driven scheduler
// advanced over without simulating (0 with DisableCycleSkip). Purely
// diagnostic: skipped cycles are fully accounted in Cycles and stats.
func (c *Core) SkippedCycles() uint64 { return c.skipped }
