// Package workload defines the synthetic SPEC CPU2017-speed-like benchmark
// suite the reproduction runs in place of SPEC binaries (see DESIGN.md §2
// substitution 1). Each of the paper's 28 workload points is a real
// program in the micro-ISA, composed from the kernel library in this file.
//
// The kernels are designed around the properties that drive the paper's
// results:
//
//   - Value stability classes. Loop-invariant loads and flag producers
//     yield stable values; whether those values are {0,1}, 9-bit signed,
//     or wide (pointers) determines which of MVP/TVP/GVP can capture them
//     (§3.1, §3.2, §6.1). Dependent-load chains headed by stable values
//     are the speedup lever: predicting the head collapses the chain.
//   - Fig. 1's value distribution: 0x0 dominant, 0x1 and small integers
//     frequent, occasional pointers.
//   - µop expansion (Fig. 2): pre/post-index memory operations crack into
//     two µops; each benchmark's addressing-mode mix sets its ratio.
//   - Branch behavior: register LCGs provide genuinely unpredictable
//     bits; modulo patterns and loop branches are predictable.
//   - Memory behavior: working set sizes position each benchmark in the
//     L1/L2/L3/DRAM hierarchy; pointer chasing defeats prefetching while
//     streams exercise the stride prefetcher.
package workload

import (
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// Register conventions used by every kernel: X19 is the outer loop
// counter; X18 and X20..X28 hold persistent state set up before the loop;
// X0..X17 are kernel scratch. D8..D15 are persistent FP registers.
const (
	rCnt   = isa.X19 // outer loop counter
	rMulC  = isa.X18 // LCG multiplier (persistent constant)
	rCfg   = isa.X20 // config block (stable values)
	rArrA  = isa.X21 // array A cursor
	rArrB  = isa.X22 // array B cursor
	rList  = isa.X23 // linked list cursor
	rTable = isa.X24 // jump table base
	rMat   = isa.X25 // matrix base
	rHist  = isa.X26 // histogram base
	rSlot  = isa.X27 // spill slot base (silent-store pattern)
	rLCG   = isa.X28 // register LCG state
)

// hugeIters makes the outer loop effectively unbounded; simulation length
// is controlled by the instruction budget, not program termination.
const hugeIters = uint64(1) << 40

// loop wraps setup and a loop body into a complete program.
func loop(name string, setup, body func(b *prog.Builder)) *prog.Program {
	b := prog.NewBuilder(name)
	setup(b)
	b.MovImm(rCnt, hugeIters)
	top := b.Here()
	body(b)
	b.SubsI(rCnt, rCnt, 1)
	b.BCond(isa.NE, top)
	b.Halt()
	return b.Build()
}

// cfgBlock allocates a config block holding the given stable values,
// points rCfg at it, and returns its base. Offset of value i is 8*i.
func cfgBlock(b *prog.Builder, values []uint64) uint64 {
	base := b.AllocWords(len(values), values...)
	b.MovAddr(rCfg, base)
	return base
}

// seedLCG initializes the register LCG used for unpredictable data.
func seedLCG(b *prog.Builder, seed uint64) {
	b.MovImm(rLCG, seed)
	b.MovImm(rMulC, 6364136223846793005)
}

// lcgStep advances the register LCG and leaves fresh pseudo-random bits
// in dst.
func lcgStep(b *prog.Builder, dst isa.Reg) {
	b.Mul(rLCG, rLCG, rMulC)
	b.AddI(rLCG, rLCG, 12345)
	b.LsrI(dst, rLCG, 33)
}

// Conflict arena: L1-latency-independent floors. All arena slots are
// spaced 16 KB apart so they map to a single L1D set (128KB, 8-way, 64B
// lines → 256 sets → 16KB set stride): with more than 8 live slots, every
// visit misses the L1D and hits the L2, yielding a stable ~L2 latency per
// link that does not depend on how much of a big working set a bounded
// simulation manages to touch. The L2 (2048 sets) spreads the same slots
// across 8 sets, so it retains them all.
const arenaStride = 16 << 10

// arena holds the conflict-slot addresses of one benchmark.
type arena struct {
	floor    []uint64 // shuffled ring of floor nodes (pointer in word 0)
	spare    []uint64 // extra conflicted slots for carried-path nodes
	pressure uint64   // base of the pressure slots (rMat points here)
}

// pressureSlots is the number of independent loads emitSetPressure issues
// per iteration: touching 8 extra lines of the conflict set every
// iteration guarantees (8-way L1D) that every floor and carried-path
// conflict slot is evicted between visits, making their L1-miss/L2-hit
// latency deterministic instead of LRU-knife-edge chaotic.
const pressureSlots = 8

// setupArena allocates floorLinks ring nodes plus spare conflicted slots,
// builds the shuffled floor ring, and points rList at it. The floor ring
// is walked with ptrChase: each link is an unpredictable pointer load that
// always misses L1 (the arena guarantees ≥ 8 live slots in the set).
func setupArena(b *prog.Builder, floorNodes, spares int, rng *xrand.Rand) arena {
	n := floorNodes + spares + pressureSlots
	base := b.Alloc(uint64(n)*arenaStride, arenaStride)
	a := arena{}
	for i := 0; i < floorNodes; i++ {
		a.floor = append(a.floor, base+uint64(i)*arenaStride)
	}
	for i := floorNodes; i < floorNodes+spares; i++ {
		a.spare = append(a.spare, base+uint64(i)*arenaStride)
	}
	a.pressure = base + uint64(floorNodes+spares)*arenaStride
	b.MovAddr(rMat, a.pressure)
	perm := make([]int, floorNodes)
	for i := range perm {
		perm[i] = i
	}
	for i := floorNodes - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < floorNodes; i++ {
		b.SetWord(a.floor[perm[i]], a.floor[perm[(i+1)%floorNodes]])
	}
	b.MovAddr(rList, a.floor[perm[0]])
	return a
}

// emitSetPressure issues pressureSlots independent loads over the arena's
// pressure lines (off any dependence chain), evicting the whole conflict
// set every iteration.
func emitSetPressure(b *prog.Builder) {
	for i := 0; i < pressureSlots; i++ {
		b.Ldr(isa.X14, rMat, int64(i)*arenaStride, 8)
	}
}

// carriedPath is the calibrated VP-speedup construction: a cycle of wide
// pointer nodes (each hot = L1-resident, or conflicted = always-L1-miss
// via the arena) walked by a persistent cursor each iteration, optionally
// followed by 0/1 ('B') and 9-bit ('S') tail links at the last node. Each
// node's word 0 points to the next node of the cycle; words 8 and 16 hold
// the stable 0 and 7 used by the tail links. All link loads return
// loop-invariant values, so:
//
//	GVP breaks every link;
//	TVP additionally leaves only the W links (it breaks B and S tails);
//	MVP breaks only the B tails.
type carriedPath struct {
	nodes []uint64
}

// setupCarriedPath builds the node cycle. conflicted[i] selects whether W
// node i is an arena slot (L2 latency) or a hot private node (L1
// latency); the arena must have enough spare slots.
func setupCarriedPath(b *prog.Builder, cur isa.Reg, conflicted []bool, a *arena) carriedPath {
	p := carriedPath{}
	spare := 0
	for _, c := range conflicted {
		var node uint64
		if c {
			if spare >= len(a.spare) {
				panic("workload: arena out of spare conflict slots")
			}
			node = a.spare[spare]
			spare++
		} else {
			node = b.Alloc(64, 64)
		}
		p.nodes = append(p.nodes, node)
	}
	for i, node := range p.nodes {
		b.SetWord(node, p.nodes[(i+1)%len(p.nodes)])
		b.SetWord(node+8, 0)
		b.SetWord(node+16, 7)
	}
	b.MovAddr(cur, p.nodes[0])
	return p
}

// emitCarriedPath emits one full cycle of W links (len(path.nodes) loads)
// followed by the tail pattern at the final node: 'B' emits a 0-value
// load plus an add (SpSR-reducible to a move when the 0 is predicted);
// 'S' emits a 7-value load plus a bic.
func emitCarriedPath(b *prog.Builder, p carriedPath, cur isa.Reg, tail string) {
	for range p.nodes {
		b.Ldr(cur, cur, 0, 8)
	}
	for _, ch := range tail {
		switch ch {
		case 'B':
			b.Ldr(isa.X13, cur, 8, 8)
			b.Add(cur, cur, isa.X13)
		case 'S':
			b.Ldr(isa.X13, cur, 16, 8)
			b.Bic(cur, cur, isa.X13)
		default:
			panic("workload: bad tail pattern " + string(ch))
		}
	}
}

// boolProducers emits n boolean-producing sequences (cmp+cset against a
// stable guard), the canonical source of the 0x0/0x1 values MVP targets;
// the booleans feed ands/csel consumers so SpSR can reduce them when the
// booleans are predicted (§4).
func boolProducers(b *prog.Builder, n int, acc isa.Reg) {
	b.Ldr(isa.X2, rCfg, 0, 8) // stable guard
	// The boolean work threads a per-iteration side accumulator seeded
	// from the varying loop counter; only its final value folds into the
	// benchmark's carried accumulator. Predicting the stable booleans
	// therefore shortens a side chain (realistic small gains) rather
	// than the loop-carried critical path.
	b.Mov(isa.X11, rCnt)
	for i := 0; i < n; i++ {
		b.CmpI(isa.X2, int64(i+1))
		b.Cset(isa.X3, isa.EQ) // stable 0 (guard never equals small i)
		b.Add(isa.X11, isa.X11, isa.X3)
		b.Ands(isa.X4, isa.X3, isa.X11) // SpSR: x3 predicted 0 → nop+NZCV
		b.Csel(isa.X5, isa.X3, isa.X4, isa.NE)
		b.Add(isa.X11, isa.X11, isa.X5)
	}
	b.Add(acc, acc, isa.X11)
}

// streamState carries a streaming kernel's region bounds.
type streamState struct {
	baseA, baseB uint64
	lenBytes     uint64
	fp           bool
}

// setupStream allocates two streaming regions and initializes cursors.
func setupStream(b *prog.Builder, lenBytes uint64, fp bool) streamState {
	st := streamState{lenBytes: lenBytes, fp: fp}
	st.baseA = b.Alloc(lenBytes, 64)
	st.baseB = b.Alloc(lenBytes, 64)
	b.MovAddr(rArrA, st.baseA)
	b.MovAddr(rArrB, st.baseB)
	return st
}

// stream emits a unit-stride streaming pass: post-index loads from A and
// post-index stores to B (two µops each: Fig. 2's expansion source), with
// predictable wrap-around resets at the region ends.
func stream(b *prog.Builder, st streamState, unroll int) {
	for i := 0; i < unroll; i++ {
		if st.fp {
			b.FldrPost(isa.Reg(0), rArrA, 8)
			b.Fadd(8, 8, isa.Reg(0)) // d8 += d0
			b.FstrPost(isa.Reg(0), rArrB, 8)
		} else {
			b.LdrPost(isa.X0, rArrA, 8, 8)
			b.AddI(isa.X0, isa.X0, 3)
			b.StrPost(isa.X0, rArrB, 8, 8)
		}
	}
	wrapCursor(b, rArrA, st.baseA, st.lenBytes)
	wrapCursor(b, rArrB, st.baseB, st.lenBytes)
}

// wrapCursor resets cur to base once it passes base+len (a rarely-taken,
// predictable branch).
func wrapCursor(b *prog.Builder, cur isa.Reg, base, lenBytes uint64) {
	skip := b.NewLabel()
	b.MovImm(isa.X14, base+lenBytes)
	b.Cmp(cur, isa.X14)
	b.BCond(isa.CC, skip) // cur < end: keep going
	b.MovImm(cur, base)
	b.Bind(skip)
}

// ptrChase emits count steps of a shuffled-ring pointer chase: every load
// depends on the previous one and the pointer values differ per step, so
// no value predictor captures them and prefetchers are defeated — the
// mcf/omnetpp memory behavior.
func ptrChase(b *prog.Builder, count int, acc isa.Reg) {
	for i := 0; i < count; i++ {
		b.Ldr(rList, rList, 0, 8)
	}
	b.Add(acc, acc, rList)
}

// setupRing allocates a ring of nodes (nodeBytes apart, pointer in word 0)
// visited in a deterministically shuffled order, sized to the working set,
// and points rList at the first node.
func setupRing(b *prog.Builder, nodes int, nodeBytes uint64, rng *xrand.Rand) {
	base := b.Alloc(uint64(nodes)*nodeBytes, 64)
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	for i := nodes - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < nodes; i++ {
		from := base + uint64(perm[i])*nodeBytes
		to := base + uint64(perm[(i+1)%nodes])*nodeBytes
		b.SetWord(from, to)
	}
	b.MovAddr(rList, base+uint64(perm[0])*nodeBytes)
}

// branchy emits n data-dependent conditional branches whose directions
// come from the register LCG: TAGE cannot learn them, giving the
// controlled misprediction rate of game-tree benchmarks.
func branchy(b *prog.Builder, n int, acc isa.Reg) {
	lcgStep(b, isa.X6)
	for i := 0; i < n; i++ {
		skip := b.NewLabel()
		b.Tbz(isa.X6, int64(i+1), skip)
		b.AddI(acc, acc, int64(i))
		b.Bind(skip)
		b.EorI(acc, acc, 1)
	}
}

// predictableBranches emits n conditional branches with loop-modulo
// patterns TAGE learns quickly (typical of well-structured code).
func predictableBranches(b *prog.Builder, n int, acc isa.Reg) {
	for i := 0; i < n; i++ {
		skip := b.NewLabel()
		b.AndI(isa.X7, rCnt, int64(1<<uint(i+1))-1)
		b.Cbnz(isa.X7, skip)
		b.AddI(acc, acc, 1)
		b.Bind(skip)
	}
}

// setupHistogram allocates a 2^sizeLog2-entry table of 8-byte counters.
func setupHistogram(b *prog.Builder, sizeLog2 uint) {
	base := b.Alloc(8<<sizeLog2, 64)
	b.MovAddr(rHist, base)
}

// histogram emits load-modify-store on pseudo-random slots of the table,
// creating store-to-load traffic and memory-order-violation training.
func histogram(b *prog.Builder, sizeLog2 uint, times int) {
	for i := 0; i < times; i++ {
		lcgStep(b, isa.X8)
		b.AndI(isa.X8, isa.X8, int64(1<<sizeLog2)-1)
		b.LdrR(isa.X9, rHist, isa.X8, 3, 8)
		b.AddI(isa.X9, isa.X9, 1)
		b.StrR(isa.X9, rHist, isa.X8, 3, 8)
	}
}

// setupSlot allocates the spill-slot block for silentStoreReload and
// stores a pointer to an indirection block in slot 0.
func setupSlot(b *prog.Builder) {
	ind := b.Alloc(64, 64)
	b.SetWord(ind+8, 0x1234)
	slot := b.AllocWords(8, ind)
	b.MovAddr(rSlot, slot)
}

// silentStoreReload emits the ValueStore::contains() pattern the paper
// dissects for xalancbmk (§6.1): a silent store of a stable pointer to a
// stack slot immediately reloaded through the same address, followed by a
// dependent load. Memory renaming would catch the def-store-load-use
// chain; GVP value-predicts the reload instead.
func silentStoreReload(b *prog.Builder, acc isa.Reg) {
	b.Ldr(isa.X10, rSlot, 0, 8) // stable pointer
	b.Str(isa.X10, rSlot, 0, 8) // silent store
	b.Ldr(isa.X11, rSlot, 0, 8) // reload (store-forwarded, stable)
	b.Ldr(isa.X12, isa.X11, 8, 8)
	b.Add(acc, acc, isa.X12)
}

// buildLeafFns emits n small leaf functions ahead of the main loop and
// returns their labels (RAS exercise).
func buildLeafFns(b *prog.Builder, n int) []prog.Label {
	over := b.NewLabel()
	b.B(over)
	fns := make([]prog.Label, n)
	for i := 0; i < n; i++ {
		fns[i] = b.Here()
		b.AddI(isa.X0, isa.X0, int64(i+1))
		b.EorI(isa.X1, isa.X0, int64(i))
		b.LslI(isa.X1, isa.X1, 1)
		b.Add(isa.X0, isa.X0, isa.X1)
		b.Ret()
	}
	b.Bind(over)
	return fns
}

// callTree emits a call to one of the pre-built leaf functions.
func callTree(b *prog.Builder, fns []prog.Label, which int) {
	b.Bl(fns[which%len(fns)])
}

// setupTable allocates an nCases jump table and points rTable at it.
func setupTable(b *prog.Builder, nCases int) uint64 {
	addr := b.Alloc(uint64(nCases)*8, 8)
	b.MovAddr(rTable, addr)
	return addr
}

// indirectDispatch emits a jump-table dispatch: an index (a predictable
// cycling pattern, or LCG-random) selects a target loaded from the table,
// reached with BR; each case block branches to a common join.
func indirectDispatch(b *prog.Builder, tableAddr uint64, nCases int, random bool) {
	join := b.NewLabel()
	if random {
		lcgStep(b, isa.X14)
	} else {
		b.Mov(isa.X14, rCnt)
	}
	b.AndI(isa.X14, isa.X14, int64(nCases-1))
	b.LdrR(isa.X15, rTable, isa.X14, 3, 8)
	b.Br(isa.X15)
	for i := 0; i < nCases; i++ {
		c := b.Here()
		b.AddI(isa.X0, isa.X0, int64(i*3+1))
		b.B(join)
		b.SetWordLabel(tableAddr+uint64(i)*8, c)
	}
	b.Bind(join)
}

// fpChain emits a serial FMADD dependence chain into accumulator d8
// (latency-bound FP, cactuBSSN/nab style).
func fpChain(b *prog.Builder, length int) {
	for i := 0; i < length; i++ {
		b.Fmadd(8, 8, 9, 10) // d8 = d8*d9 + d10 — serial
	}
}

// fpWide emits independent FP work across d0..d7 (ILP-rich FP,
// imagick/wrf style).
func fpWide(b *prog.Builder, n int) {
	for i := 0; i < n; i++ {
		r := isa.Reg(i & 7)
		b.Fmadd(r, r, 9, 10)
	}
}

// setupMatrix allocates a rows×2^colsLog2 matrix of 8-byte elements.
func setupMatrix(b *prog.Builder, rows int, colsLog2 uint) {
	base := b.Alloc(uint64(rows)<<(colsLog2+3), 64)
	b.MovAddr(rMat, base)
}

// matrixWalk emits a column-strided pass over the matrix (row stride
// 8<<colsLog2 bytes), the AMPM-friendly L2 pattern.
func matrixWalk(b *prog.Builder, rows int, colsLog2 uint, unroll int) {
	b.AndI(isa.X5, rCnt, int64(1<<colsLog2)-1)
	b.LslI(isa.X5, isa.X5, 3)
	b.Add(isa.X5, isa.X5, rMat)
	stride := int64(8 << colsLog2)
	for i := 0; i < unroll && i < rows; i++ {
		b.Ldr(isa.X6, isa.X5, stride*int64(i), 8)
		b.Add(isa.X0, isa.X0, isa.X6)
	}
}

// movzMix emits small-immediate moves (9-bit idiom candidates, §3.2.2)
// and occasional wide constants, then consumes them.
func movzMix(b *prog.Builder, n int, acc isa.Reg) {
	for i := 0; i < n; i++ {
		b.Movz(isa.X1, uint16(i*13+2)&0xff, 0) // 9-bit idiom candidate
		b.Add(acc, acc, isa.X1)
		if i&3 == 0 {
			b.Movz(isa.X2, uint16(0x1000+i), 0) // wide: not inlinable
			b.Eor(acc, acc, isa.X2)
		}
	}
}

// regMoves emits the register shuffling compiled code is full of: move
// idioms (orr xd, xzr, xm — eliminable), occasional 32-bit moves of
// 64-bit definitions (blocked by the width rule, the paper's ~10% "Non
// ME move" fraction), and zero/one idioms. These feed the baseline DSR
// statistics of Fig. 4.
func regMoves(b *prog.Builder, n int, acc isa.Reg) {
	for i := 0; i < n; i++ {
		b.Mov(isa.X1, acc) // move idiom: eliminated
		b.Mov(isa.X2, isa.X1)
		b.Mov(isa.X3, rCnt)
		b.Mov(isa.X4, isa.X3)
		b.Zero(isa.X5) // zero idiom
		b.Add(isa.X6, isa.X2, isa.X5)
		if i&1 == 0 {
			b.One(isa.X7) // one idiom
			b.Add(acc, acc, isa.X7)
		}
		// Roughly half the call sites (selected by static code position,
		// so builds stay deterministic) include a 32-bit move of a
		// 64-bit definition — blocked by the width rule, giving the
		// suite-wide ~10% "Non ME move" fraction of Fig. 4.
		if b.Len()&1 == 0 {
			b.MovW(isa.X8, isa.X4)
			b.Add(acc, acc, isa.X8)
		}
		b.Add(acc, acc, isa.X6)
	}
}

// stackSpill emits n callee-save-style spill/reload pairs through the
// stack pointer using pre/post-index addressing — the paper's dominant
// µop expansion source (Fig. 2) — and exercises store-to-load forwarding.
func stackSpill(b *prog.Builder, n int) {
	for i := 0; i < n; i++ {
		b.StrPre(isa.X9, isa.X29, -16, 8)
		b.LdrPost(isa.X9, isa.X29, 16, 8)
	}
}

// aluWide emits n independent single-cycle ALU operations across disjoint
// scratch registers (ILP filler that soaks issue bandwidth without
// extending any dependence chain).
func aluWide(b *prog.Builder, n int) {
	for i := 0; i < n; i++ {
		r := isa.Reg(i%8) + isa.X2
		b.AddI(r, r, int64(i+1))
	}
}

// divWork emits an occasional guarded integer division.
func divWork(b *prog.Builder, acc isa.Reg) {
	skip := b.NewLabel()
	b.AndI(isa.X3, rCnt, 15)
	b.Cbnz(isa.X3, skip)
	b.AddI(isa.X4, acc, 97)
	b.OrrI(isa.X5, rCnt, 1)
	b.Sdiv(isa.X4, isa.X4, isa.X5)
	b.Add(acc, acc, isa.X4)
	b.Bind(skip)
}

// stableLoads emits loads of loop-invariant config values and consumes
// them as address offsets of dependent loads into a scratch array, so a
// correct prediction of the stable value breaks the address dependence.
// slots selects which config slots to read; arr is a 4KB scratch region.
func stableLoads(b *prog.Builder, slots []int, arrBase uint64, acc isa.Reg) {
	b.MovImm(isa.X9, arrBase)
	for _, s := range slots {
		b.Ldr(isa.X7, rCfg, int64(s*8), 8)   // stable value
		b.AndI(isa.X8, isa.X7, 511)          // bound the offset
		b.LdrR(isa.X8, isa.X9, isa.X8, 3, 8) // dependent load
		b.Add(acc, acc, isa.X8)
	}
}
