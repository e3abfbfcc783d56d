// Package tlb models the two-level TLB hierarchy of Table 2: direct-mapped
// 256-entry L1 I/D TLBs with zero added latency, backed by a 12-way
// 3072-entry L2 TLB (4 cycles) and a fixed-cost page table walk. Since the
// simulator's workloads run in a flat address space, the TLB affects
// timing only (there is no translation to perform), which is exactly its
// role in the paper's evaluation.
package tlb

import "repro/internal/config"

const pageShift = 12

// TLB is a set-associative translation buffer.
type TLB struct {
	sets    [][]entry
	setMask uint64
	clock   uint64
	// Stats.
	Accesses uint64
	Misses   uint64
}

type entry struct {
	valid bool
	vpn   uint64
	lru   uint64
}

// New builds a TLB from the configuration.
func New(cfg config.TLBConfig) *TLB {
	assoc := cfg.Assoc
	if assoc <= 0 {
		assoc = 1
	}
	nsets := cfg.Entries / assoc
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1
	}
	if nsets == 0 {
		nsets = 1
	}
	t := &TLB{setMask: uint64(nsets - 1)}
	backing := make([]entry, nsets*assoc)
	t.sets = make([][]entry, nsets)
	for i := range t.sets {
		t.sets[i] = backing[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return t
}

// Lookup probes the TLB for the page of addr, inserting on miss, and
// reports whether it hit.
//
//tvp:hotpath
func (t *TLB) Lookup(addr uint64) bool {
	vpn := addr >> pageShift
	set := t.sets[vpn&t.setMask]
	t.clock++
	t.Accesses++
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].lru = t.clock
			return true
		}
	}
	t.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = entry{valid: true, vpn: vpn, lru: t.clock}
	return false
}

// Hierarchy is a two-level TLB with a fixed page-walk cost.
type Hierarchy struct {
	L1I, L1D *TLB
	L2       *TLB
	l2Lat    uint64
	walkLat  uint64
}

// NewHierarchy builds the Table 2 TLB hierarchy.
func NewHierarchy(m *config.Machine) *Hierarchy {
	return &Hierarchy{
		L1I:     New(m.L1ITLB),
		L1D:     New(m.L1DTLB),
		L2:      New(m.L2TLB),
		l2Lat:   uint64(m.L2TLB.Latency),
		walkLat: uint64(m.PageWalkLat),
	}
}

// Translate returns the extra cycles a data (instr=false) or instruction
// (instr=true) access pays for translation: 0 on an L1 TLB hit (Table 2:
// "L1 TLB latency is accounted for in the L1 caches load to use"), the L2
// TLB latency on an L1 miss, plus the walk cost on an L2 miss.
//
//tvp:hotpath
func (h *Hierarchy) Translate(addr uint64, instr bool) uint64 {
	l1 := h.L1D
	if instr {
		l1 = h.L1I
	}
	if l1.Lookup(addr) {
		return 0
	}
	if h.L2.Lookup(addr) {
		return h.l2Lat
	}
	return h.l2Lat + h.walkLat
}
