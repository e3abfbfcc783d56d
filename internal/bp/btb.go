package bp

// BTB is a set-associative branch target buffer with true-LRU
// replacement. The pipeline consults it for every fetched branch; a taken
// branch whose target is absent incurs the decode-stage mistarget penalty
// (Table 2: "Mistarget detection (BTB miss)").
type BTB struct {
	sets    [][]btbEntry
	setMask uint64
	assoc   int
	clock   uint64
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

// NewBTB returns a BTB with the given total entry count and associativity.
func NewBTB(entries, assoc int) *BTB {
	if assoc <= 0 {
		assoc = 1
	}
	nsets := entries / assoc
	if nsets == 0 {
		nsets = 1
	}
	// Round down to a power of two for mask indexing.
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1
	}
	b := &BTB{assoc: assoc, setMask: uint64(nsets - 1)}
	backing := make([]btbEntry, nsets*assoc)
	b.sets = make([][]btbEntry, nsets)
	for i := range b.sets {
		b.sets[i] = backing[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return b
}

//tvp:hotpath
func (b *BTB) set(pc uint64) ([]btbEntry, uint64) {
	idx := pc >> 2 & b.setMask
	return b.sets[idx], pc >> 2 / (b.setMask + 1)
}

// Lookup returns the stored target for pc, if present.
//
//tvp:hotpath
func (b *BTB) Lookup(pc uint64) (target uint64, ok bool) {
	set, tag := b.set(pc)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			b.clock++
			set[i].lru = b.clock
			return set[i].target, true
		}
	}
	return 0, false
}

// Insert records pc → target, evicting the LRU way on conflict.
//
//tvp:hotpath
func (b *BTB) Insert(pc, target uint64) {
	set, tag := b.set(pc)
	b.clock++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].target = target
			set[i].lru = b.clock
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = btbEntry{valid: true, tag: tag, target: target, lru: b.clock}
}
