// Package verify statically checks encoded micro-ISA programs before
// they are allowed to run: it decodes the binary, constructs a
// control-flow graph (resolving the fuzzgen idioms — masked indices,
// jump tables, BR/RET indirect targets — through a conservative
// value-set/interval/known-bits abstract domain), and runs a pipeline
// of analyses with position-exact diagnostics:
//
//   - structural: decodability, in-range direct branch targets, a
//     reachable HALT, no fall-through past the last instruction;
//   - def-before-use dataflow over the integer and FP register files;
//   - memory bounds: every load/store footprint provably inside the
//     data or stack windows, and no store overlapping text
//     (self-modifying code is rejected);
//   - indirect-branch resolution: BR/RET targets must enumerate to
//     valid text addresses;
//   - termination: every cycle of the feasible CFG must have an exit
//     edge (no reachable component the program can never leave).
//
// The memory model reaches a fixpoint by assume-guarantee iteration:
// loads read against the store summary observed by the previous round
// until the summary stops growing, so stores in loops are accounted
// for without path enumeration. Soundness goal (fuzz-tested by
// FuzzVerify): if Program reports no Error, the emulator can execute
// the program without panicking and every memory access stays inside
// the windows the Result reports.
package verify

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/isa/tvpb"
	"repro/internal/prog"
)

// Severity grades a diagnostic. Only Error makes a program unrunnable;
// Warn (e.g. reads of never-written registers, which architecturally
// read zero) and Info (unreachable code) are lint findings.
type Severity int

const (
	Info Severity = iota
	Warn
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Diag is one structured, position-exact finding.
type Diag struct {
	Check string // analysis that produced it: struct, target, fallthrough, halt, defuse, bounds, selfmod, indirect, loop, converge, decode
	Sev   Severity
	Index int    // instruction index, -1 for program-level findings
	PC    uint64 // byte address of Index (0 when Index < 0)
	Msg   string
}

func (d Diag) String() string {
	if d.Index < 0 {
		return fmt.Sprintf("%s: [%s] %s", d.Sev, d.Check, d.Msg)
	}
	return fmt.Sprintf("%s: inst %d @%#x: [%s] %s", d.Sev, d.Index, d.PC, d.Check, d.Msg)
}

const (
	// maxOuter bounds the assume-guarantee memory iterations.
	maxOuter = 64
	// maxSteps bounds total abstract transfer executions.
	maxSteps       = 4_000_000
	widenThreshold = 24
)

// Result carries the findings plus the feasible CFG the fixpoint
// discovered (successor lists and reachability per instruction).
type Result struct {
	Diags     []Diag
	Succs     [][]int // feasible successors per instruction (nil when unreachable)
	Reachable []bool
	MemIters  int // assume-guarantee rounds until the store summary stabilized

	dataLo, dataHi   uint64
	stackLo, stackHi uint64
}

// OK reports whether the program passed (no Error-severity findings).
func (r *Result) OK() bool {
	for _, d := range r.Diags {
		if d.Sev == Error {
			return false
		}
	}
	return true
}

// Errors returns only the Error-severity findings.
func (r *Result) Errors() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Sev == Error {
			out = append(out, d)
		}
	}
	return out
}

// Allows reports whether a concrete memory access of size bytes at ea
// falls inside the windows the verifier proved all accesses stay in.
// FuzzVerify uses it to hold the verifier to its own claim.
func (r *Result) Allows(ea uint64, size uint8) bool {
	hi := ea + uint64(size)
	if hi < ea {
		return false
	}
	return (ea >= r.dataLo && hi <= r.dataHi) || (ea >= r.stackLo && hi <= r.stackHi)
}

// Program verifies an in-memory program.
func Program(p *prog.Program) *Result {
	v := &verifier{
		p:      p,
		n:      len(p.Code),
		mem:    newMemModel(p),
		marks:  landmarks(p),
		diags:  map[diagKey]Diag{},
		ctxs:   [][]int{nil},
		ctxIDs: map[string]int{"": 0},
	}
	return v.run()
}

// Binary decodes a TVPB container and verifies the program. A container
// that does not decode yields a nil program and a single decode
// diagnostic.
func Binary(data []byte) (*prog.Program, *Result) {
	p, err := tvpb.DecodeProgram(data)
	if err != nil {
		return nil, &Result{Diags: []Diag{{
			Check: "decode", Sev: Error, Index: -1, Msg: err.Error(),
		}}}
	}
	return p, Program(p)
}

type diagKey struct {
	check string
	index int
}

type verifier struct {
	p *prog.Program
	n int

	mem   *memModel
	marks []uint64

	pre   []Diag           // structural pre-pass findings (kept across iterations)
	diags map[diagKey]Diag // per-iteration findings (reset each outer round)

	// Call-string contexts: the fixpoint analyzes (instruction, context)
	// pairs so that states flowing in from distinct call sites never
	// merge inside a callee. Contexts partition states only — CFG edges
	// are always computed from abstract register values, so a program
	// that tampers with the link register is still handled soundly,
	// merely less precisely.
	ctxs   [][]int        // interned call strings (stacks of BL sites); ctxs[0] is empty
	ctxIDs map[string]int // encoded call string -> context id
	curCtx int            // context of the node currently being transferred

	succs     [][]int
	reachable []bool
	haltSeen  bool
	steps     int
	aborted   bool
}

const (
	// maxCtxDepth bounds call-string length; deeper recursion merges
	// into the deepest tracked frame (sound, less precise).
	maxCtxDepth = 16
	// maxCtxs bounds the interning table against adversarial call webs.
	maxCtxs = 4096
)

func ctxKey(cs []int) string {
	b := make([]byte, 0, len(cs)*4)
	for _, x := range cs {
		b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return string(b)
}

func (v *verifier) internCtx(cs []int) int {
	key := ctxKey(cs)
	if id, ok := v.ctxIDs[key]; ok {
		return id
	}
	id := len(v.ctxs)
	v.ctxs = append(v.ctxs, append([]int(nil), cs...))
	v.ctxIDs[key] = id
	return id
}

// pushCtx extends the call string with a BL site, saturating at the
// depth and table limits (the context is then simply reused).
func (v *verifier) pushCtx(ctx, site int) int {
	cs := v.ctxs[ctx]
	if len(cs) >= maxCtxDepth || len(v.ctxs) >= maxCtxs {
		return ctx
	}
	ns := make([]int, len(cs)+1)
	copy(ns, cs)
	ns[len(cs)] = site
	return v.internCtx(ns)
}

// retCtx pops the top frame when a RET goes back to the instruction
// after its BL; any other return target keeps the context as-is.
func (v *verifier) retCtx(ctx, target int) int {
	cs := v.ctxs[ctx]
	if len(cs) > 0 && cs[len(cs)-1]+1 == target {
		return v.internCtx(cs[:len(cs)-1])
	}
	return ctx
}

func (v *verifier) addDiag(check string, sev Severity, index int, msg string) {
	k := diagKey{check, index}
	if _, ok := v.diags[k]; ok {
		return
	}
	var pc uint64
	if index >= 0 {
		pc = prog.PC(index)
	}
	v.diags[k] = Diag{Check: check, Sev: sev, Index: index, PC: pc, Msg: msg}
}

func (v *verifier) run() *Result {
	if v.n == 0 {
		return v.result([]Diag{{Check: "halt", Sev: Error, Index: -1, Msg: "empty program (no instructions, no HALT)"}})
	}

	// Structural pre-pass over every instruction, reachable or not.
	for i := range v.p.Code {
		in := &v.p.Code[i]
		if in.Op > isa.HALT {
			v.pre = append(v.pre, Diag{Check: "struct", Sev: Error, Index: i, PC: prog.PC(i),
				Msg: fmt.Sprintf("invalid opcode %d", uint8(in.Op))})
			continue
		}
		switch in.Op {
		case isa.B, isa.BCOND, isa.CBZ, isa.CBNZ, isa.TBZ, isa.TBNZ, isa.BL:
			if in.Target < 0 || in.Target >= v.n {
				v.pre = append(v.pre, Diag{Check: "target", Sev: Error, Index: i, PC: prog.PC(i),
					Msg: fmt.Sprintf("direct branch target %d outside text [0, %d)", in.Target, v.n)})
			}
		}
	}

	// Assume-guarantee outer loop: re-run the dataflow until the store
	// summary (smashed spans + cells) stops growing, so loads in the
	// final round see every store any execution can perform.
	iters := 0
	for {
		iters++
		v.mem.beginIter()
		v.diags = map[diagKey]Diag{}
		v.haltSeen = false
		v.steps = 0
		v.aborted = false
		v.fixpoint()
		if v.aborted {
			v.addDiag("converge", Error, -1,
				fmt.Sprintf("abstract interpretation exceeded %d steps without converging", maxSteps))
			break
		}
		if v.mem.stable() {
			break
		}
		if iters >= maxOuter {
			v.addDiag("converge", Error, -1,
				fmt.Sprintf("store summary did not stabilize within %d rounds", maxOuter))
			break
		}
	}

	var diags []Diag
	diags = append(diags, v.pre...)
	for _, d := range v.diags {
		diags = append(diags, d)
	}
	diags = append(diags, v.postChecks()...)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Index != diags[j].Index {
			return diags[i].Index < diags[j].Index
		}
		if diags[i].Check != diags[j].Check {
			return diags[i].Check < diags[j].Check
		}
		return diags[i].Msg < diags[j].Msg
	})
	r := v.result(diags)
	r.MemIters = iters
	return r
}

func (v *verifier) result(diags []Diag) *Result {
	r := &Result{
		Diags:     diags,
		Succs:     v.succs,
		Reachable: v.reachable,
	}
	if v.mem != nil {
		r.dataLo, r.dataHi = v.mem.data.lo, v.mem.data.hi
		r.stackLo, r.stackHi = v.mem.stack.lo, v.mem.stack.hi
	}
	return r
}

// nodeKey identifies one abstract interpretation node: an instruction
// in a call-string context.
type nodeKey struct {
	idx int
	ctx int
}

// fixpoint runs the worklist abstract interpretation from the entry
// point, discovering CFG edges as values resolve. Nodes are
// (instruction, context) pairs; the reported CFG (succs/reachable) is
// the per-instruction union over contexts.
func (v *verifier) fixpoint() {
	in := map[nodeKey]*state{}
	visits := map[nodeKey]int{}
	queued := map[nodeKey]bool{}
	v.succs = make([][]int, v.n)
	v.reachable = make([]bool, v.n)

	entry := nodeKey{idx: 0, ctx: 0}
	in[entry] = entryState()
	queue := []nodeKey{entry}
	queued[entry] = true

	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		queued[k] = false

		v.steps++
		if v.steps > maxSteps {
			v.aborted = true
			return
		}

		v.reachable[k.idx] = true
		st := in[k].clone()
		v.curCtx = k.ctx
		edges := v.transfer(k.idx, st)

		for _, e := range edges {
			if !containsInt(v.succs[k.idx], e.to) {
				v.succs[k.idx] = append(v.succs[k.idx], e.to)
			}
		}

		for _, e := range edges {
			t := nodeKey{idx: e.to, ctx: e.ctx}
			if in[t] == nil {
				in[t] = e.st.clone()
				visits[t] = 1
				if !queued[t] {
					queued[t] = true
					queue = append(queue, t)
				}
				continue
			}
			if joinInto(in[t], e.st) {
				// Widen only at targets of backward edges (loop heads).
				// Every cycle contains one, so termination is preserved,
				// while interior nodes keep computing plain transfers of
				// the head's stabilized state — widening them too would
				// ratchet chained post-increment cursors up the landmark
				// ladder without bound.
				if e.to <= k.idx {
					visits[t]++
					if visits[t] > widenThreshold {
						in[t].widen(v.marks)
					}
				}
				if !queued[t] {
					queued[t] = true
					queue = append(queue, t)
				}
			}
		}
	}
	for i := range v.succs {
		sort.Ints(v.succs[i])
	}
}

// postChecks runs the whole-CFG analyses over the final feasible graph:
// HALT reachability, inescapable cycles (Tarjan SCC condensation), and
// unreachable-code info notes.
func (v *verifier) postChecks() []Diag {
	var out []Diag
	if v.reachable == nil {
		return out
	}

	if !v.haltSeen {
		out = append(out, Diag{Check: "halt", Sev: Error, Index: -1,
			Msg: "no reachable HALT: every feasible path runs off into branches or traps"})
	}

	// Inescapable cycles: any strongly-connected component that contains
	// a cycle and has no edge leaving it can never reach HALT.
	for _, scc := range v.sccs() {
		if !v.sccHasCycle(scc) {
			continue
		}
		if v.sccHasExit(scc) {
			continue
		}
		min := scc[0]
		for _, n := range scc {
			if n < min {
				min = n
			}
		}
		out = append(out, Diag{Check: "loop", Sev: Error, Index: min, PC: prog.PC(min),
			Msg: fmt.Sprintf("inescapable cycle of %d instruction(s): no feasible exit edge leaves it", len(scc))})
	}

	// Unreachable code is informational: fuzz mutants and hand-written
	// binaries may carry dead regions without being unsafe.
	for i := 0; i < v.n; {
		if v.reachable[i] {
			i++
			continue
		}
		j := i
		for j < v.n && !v.reachable[j] {
			j++
		}
		out = append(out, Diag{Check: "unreachable", Sev: Info, Index: i, PC: prog.PC(i),
			Msg: fmt.Sprintf("instructions %d..%d are unreachable", i, j-1)})
		i = j
	}
	return out
}

func (v *verifier) sccHasCycle(scc []int) bool {
	if len(scc) > 1 {
		return true
	}
	n := scc[0]
	return containsInt(v.succs[n], n) // self-loop
}

func (v *verifier) sccHasExit(scc []int) bool {
	inSCC := map[int]bool{}
	for _, n := range scc {
		inSCC[n] = true
	}
	for _, n := range scc {
		for _, s := range v.succs[n] {
			if !inSCC[s] {
				return true
			}
		}
	}
	return false
}

// sccs returns the strongly-connected components of the reachable
// feasible CFG (iterative Tarjan).
func (v *verifier) sccs() [][]int {
	const unvisited = -1
	index := make([]int, v.n)
	lowlink := make([]int, v.n)
	onStack := make([]bool, v.n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack  []int
		result [][]int
		next   = 0
	)

	type frame struct {
		node int
		succ int
	}
	for root := 0; root < v.n; root++ {
		if !v.reachable[root] || index[root] != unvisited {
			continue
		}
		callStack := []frame{{node: root}}
		index[root], lowlink[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			n := f.node
			if f.succ < len(v.succs[n]) {
				s := v.succs[n][f.succ]
				f.succ++
				if index[s] == unvisited {
					index[s], lowlink[s] = next, next
					next++
					stack = append(stack, s)
					onStack[s] = true
					callStack = append(callStack, frame{node: s})
				} else if onStack[s] {
					if index[s] < lowlink[n] {
						lowlink[n] = index[s]
					}
				}
				continue
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].node
				if lowlink[n] < lowlink[parent] {
					lowlink[parent] = lowlink[n]
				}
			}
			if lowlink[n] == index[n] {
				var scc []int
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					scc = append(scc, m)
					if m == n {
						break
					}
				}
				result = append(result, scc)
			}
		}
	}
	return result
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
