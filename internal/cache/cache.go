// Package cache implements the simulated cache hierarchy: set-associative,
// LRU, write-back/write-allocate caches with MSHR-based miss tracking,
// chained into L1I/L1D → L2 → L3 → memory per Table 2 of the paper.
//
// The model is latency-oriented: an access performed at a given cycle
// returns the cycle at which its data is available. Lines are installed
// functionally at access time while MSHRs carry the timing of in-flight
// fills, so concurrent misses to one line merge onto a single fill
// (standard MSHR semantics) and MSHR exhaustion back-pressures new misses.
package cache

import (
	"math/bits"

	"repro/internal/config"
)

// Level is anything that can service a line fill: a Cache or the Memory
// backstop.
type Level interface {
	// Access requests the line containing addr at the given cycle and
	// returns the cycle the line is available to the requester. Writes
	// are identified for dirty-line bookkeeping; prefetches for stats.
	Access(addr uint64, cycle uint64, write, prefetch bool) uint64
}

// Memory is the fixed-latency DRAM backstop.
type Memory struct {
	Latency uint64
	// Accesses counts line requests reaching memory.
	Accesses uint64
}

// Access implements Level.
func (m *Memory) Access(_ uint64, cycle uint64, _, _ bool) uint64 {
	m.Accesses++
	return cycle + m.Latency
}

// Prefetcher observes demand accesses at one cache level and proposes
// prefetch addresses (byte addresses; the cache dedups by line).
type Prefetcher interface {
	// Observe is called for each demand access with the byte address, the
	// requesting PC (zero if unknown), and whether the access hit. The
	// returned addresses are prefetched into the observing cache.
	Observe(addr, pc uint64, hit bool) []uint64
}

// Cache is one cache level.
type Cache struct {
	Name string

	cfg      config.CacheConfig
	lines    []line   // small caches: nsets*assoc, set-major, eager
	chunks   [][]line // large caches: chunkSets-set groups, allocated on first install
	assoc    int
	lineBits uint
	setMask  uint64
	next     Level
	mshr     mshrFile
	pf       Prefetcher
	clock    uint64

	// MissHook, when non-nil, is invoked on each demand miss (debugging).
	MissHook func(addr uint64, write bool)

	// Stats.
	Accesses     uint64 // demand accesses
	Misses       uint64 // demand misses (MSHR merges count as misses too)
	Writebacks   uint64
	PFIssued     uint64 // prefetches sent by the attached prefetcher
	PFUseful     uint64 // demand hits on prefetched-but-unused lines
	MSHRConflict uint64 // accesses delayed by MSHR exhaustion
}

// line is one cache line. The valid/dirty/prefetched flags live in the
// top bits of the tag word: line addresses are physical addresses shifted
// right by lineBits, so bits 61+ are free, and the 16-byte struct halves
// the zeroing cost of the per-run constructor (an L3 is ~32k lines).
type line struct {
	tag uint64 // lnTagMask bits: line address; top bits: ln* flags
	lru uint64
}

const (
	lnValid      = uint64(1) << 63
	lnDirty      = uint64(1) << 62
	lnPrefetched = uint64(1) << 61
	lnTagMask    = lnPrefetched - 1
)

// mshrFile is one level's miss status holding registers, kept as
// struct-of-arrays with a one-word occupancy mask so every scan visits
// only occupied entries, in ascending index order. The timing model
// depends on that order: allocation takes the lowest free index, and an
// MSHR conflict reuses the lowest-index entry among those retiring
// earliest. Entries whose fill has returned are swept lazily (by alloc,
// or one at a time by prefetchSlot), so until then a stale entry still
// counts as in flight for merges. At most one occupied entry holds a
// given line: fill and Prefetch both look for an in-flight fill of the
// line before claiming a slot for it.
type mshrFile struct {
	tag   []uint64 // full line address
	ready []uint64 // cycle the fill returns
	valid uint64   // bit i set: entry i is occupied
	all   uint64   // bits 0..len(tag)-1
}

func newMSHRFile(n int) mshrFile {
	if n < 1 || n > config.MaxMSHRs {
		panic("cache: MSHR count must be in 1..64")
	}
	buf := make([]uint64, 2*n) // one allocation backs both arrays
	return mshrFile{
		tag:   buf[:n:n],
		ready: buf[n:],
		all:   ^uint64(0) >> (64 - n),
	}
}

// find returns the occupied entry tracking line la, or -1.
//
//tvp:hotpath
func (f *mshrFile) find(la uint64) int {
	for m := f.valid; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); f.tag[i] == la {
			return i
		}
	}
	return -1
}

// alloc frees every entry whose fill has returned by cycle and returns
// the lowest free index, with start = cycle. When every entry is still
// busy it returns conflict, the lowest-index entry among those retiring
// earliest, and that retirement cycle as start.
//
//tvp:hotpath
func (f *mshrFile) alloc(cycle uint64) (slot int, start uint64, conflict bool) {
	earliest, victim := ^uint64(0), -1
	for m := f.valid; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if r := f.ready[i]; r <= cycle {
			f.valid &^= 1 << i
		} else if r < earliest {
			earliest, victim = r, i
		}
	}
	if free := f.all &^ f.valid; free != 0 {
		return bits.TrailingZeros64(free), cycle, false
	}
	return victim, earliest, true
}

// prefetchSlot returns the lowest index that is free or whose fill has
// returned by cycle, or -1 when every entry is busy. Unlike alloc it
// sweeps nothing else: a prefetch reclaims at most the one entry it uses.
//
//tvp:hotpath
func (f *mshrFile) prefetchSlot(cycle uint64) int {
	free := f.all &^ f.valid
	below := f.valid // occupied entries below the lowest free index
	if free != 0 {
		below &= free&-free - 1
	}
	for m := below; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); f.ready[i] <= cycle {
			return i
		}
	}
	if free != 0 {
		return bits.TrailingZeros64(free)
	}
	return -1
}

// set occupies entry i with a fill of line la returning at ready.
//
//tvp:hotpath
func (f *mshrFile) set(i int, la, ready uint64) {
	f.tag[i], f.ready[i] = la, ready
	f.valid |= 1 << i
}

// New builds a cache level in front of next, optionally with a
// prefetcher.
func New(name string, cfg config.CacheConfig, next Level, pf Prefetcher) *Cache {
	nsets := cfg.Sets()
	c := &Cache{
		Name:    name,
		cfg:     cfg,
		next:    next,
		pf:      pf,
		setMask: uint64(nsets - 1),
		mshr:    newMSHRFile(cfg.MSHRs),
	}
	for cfg.LineBytes>>c.lineBits > 1 {
		c.lineBits++
	}
	if nsets&(nsets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	c.assoc = cfg.Assoc
	// Cores are built per run, so constructor allocation and zeroing are
	// on the experiment hot path. Small caches get one flat eager array;
	// large ones (an L3 is ~2MB of line state, of which a short run
	// touches a sliver) defer to chunked on-demand allocation — a missing
	// chunk reads as all-invalid lines, so behavior is identical.
	if nsets >= 2*chunkSets {
		c.chunks = make([][]line, nsets/chunkSets)
	} else {
		c.lines = make([]line, nsets*cfg.Assoc)
	}
	return c
}

// chunkSets is the lazy-allocation granule for large caches: 256
// consecutive sets (16KB of contiguous address space at 64B lines), a
// compromise between zeroing cost and allocation count per run.
const chunkSets = 256

// setOf returns the set's way slice, or nil when its chunk has not been
// allocated (equivalent to an all-invalid set on the read path).
//
//tvp:hotpath
func (c *Cache) setOf(si int) []line {
	base := si * c.assoc
	if c.chunks == nil {
		return c.lines[base : base+c.assoc : base+c.assoc]
	}
	ch := c.chunks[si>>8]
	if ch == nil {
		return nil
	}
	base &= chunkSets*c.assoc - 1
	return ch[base : base+c.assoc : base+c.assoc]
}

// setAlloc is setOf for the install path: it allocates the backing chunk
// on first touch.
func (c *Cache) setAlloc(si int) []line {
	if c.chunks != nil && c.chunks[si>>8] == nil {
		c.chunks[si>>8] = make([]line, chunkSets*c.assoc)
	}
	return c.setOf(si)
}

func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineBits }

//tvp:hotpath
func (c *Cache) lookup(la uint64) *line {
	set := c.setOf(int(la & c.setMask))
	want := la | lnValid // store the full line address as the tag; simple and exact
	for i := range set {
		if set[i].tag&(lnValid|lnTagMask) == want {
			return &set[i]
		}
	}
	return nil
}

// Access implements Level for demand and prefetch requests arriving at
// this cache. The returned cycle includes this level's load-to-use
// latency on a hit, or the full fill path on a miss.
//
//tvp:hotpath
func (c *Cache) Access(addr uint64, cycle uint64, write, prefetch bool) uint64 {
	la := c.lineAddr(addr)
	c.clock++
	if !prefetch {
		c.Accesses++
	}

	hitLat := uint64(c.cfg.LoadToUse)
	ln := c.lookup(la)
	var ready uint64
	hit := ln != nil

	if hit {
		ready = cycle + hitLat
		// Hit under fill: if the line's fill is still in flight, data is
		// not available before the fill returns.
		if i := c.mshr.find(la); i >= 0 && c.mshr.ready[i] > ready {
			ready = c.mshr.ready[i]
		}
		if ln.tag&lnPrefetched != 0 && !prefetch {
			c.PFUseful++
			ln.tag &^= lnPrefetched
		}
		ln.lru = c.clock
		if write {
			ln.tag |= lnDirty
		}
	} else {
		if !prefetch {
			c.Misses++
			if c.MissHook != nil {
				c.MissHook(addr, write)
			}
		}
		ready = c.fill(la, addr, cycle+hitLat, write, prefetch)
	}

	if c.pf != nil && !prefetch {
		for _, pa := range c.pf.Observe(addr, 0, hit) {
			c.Prefetch(pa, cycle)
		}
	}
	return ready
}

// Prefetch issues a prefetch for addr into this cache.
func (c *Cache) Prefetch(addr uint64, cycle uint64) {
	la := c.lineAddr(addr)
	if c.lookup(la) != nil {
		return // already present
	}
	if c.mshr.find(la) >= 0 {
		return // already in flight
	}
	c.PFIssued++
	c.fillPrefetch(la, addr, cycle+uint64(c.cfg.LoadToUse))
}

// fill handles a demand miss: MSHR merge/allocate, request from next
// level, victim writeback, line install.
//
//tvp:hotpath
func (c *Cache) fill(la, addr, cycle uint64, write, prefetch bool) uint64 {
	// MSHR merge: a fill for this line is already in flight.
	if i := c.mshr.find(la); i >= 0 {
		r := c.mshr.ready[i]
		if r < cycle {
			r = cycle
		}
		if write {
			if ln := c.lookup(la); ln != nil {
				ln.tag |= lnDirty
			}
		}
		return r
	}
	// Allocate an MSHR; if all are busy, the request is delayed until the
	// earliest one retires and takes its slot.
	slot, start, conflict := c.mshr.alloc(cycle)
	if conflict {
		c.MSHRConflict++
	}

	ready := c.next.Access(addr, start, false, prefetch)
	c.mshr.set(slot, la, ready)

	c.install(la, write, prefetch, cycle)
	return ready
}

func (c *Cache) fillPrefetch(la, addr, cycle uint64) {
	slot := c.mshr.prefetchSlot(cycle)
	if slot < 0 {
		return // no MSHR for a prefetch: drop it
	}
	ready := c.next.Access(addr, cycle, false, true)
	c.mshr.set(slot, la, ready)
	ln := c.install(la, false, true, cycle)
	ln.tag |= lnPrefetched
}

// install victimizes the LRU way and installs the new line.
func (c *Cache) install(la uint64, write, prefetch bool, cycle uint64) *line {
	set := c.setAlloc(int(la & c.setMask))
	victim := 0
	for i := range set {
		if set[i].tag&lnValid == 0 {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].tag&(lnValid|lnDirty) == lnValid|lnDirty {
		c.Writebacks++
		// Writebacks consume next-level bandwidth but nothing waits on
		// them; charge the access without using the returned latency.
		c.next.Access(set[victim].tag&lnTagMask<<c.lineBits, cycle, true, false)
	}
	t := la | lnValid
	if write {
		t |= lnDirty
	}
	if prefetch {
		t |= lnPrefetched
	}
	set[victim] = line{tag: t, lru: c.clock}
	return &set[victim]
}

// Hierarchy bundles the full memory system of one core.
type Hierarchy struct {
	L1I, L1D, L2, L3 *Cache
	Mem              *Memory
}

// NewHierarchy builds the Table 2 hierarchy with the given prefetchers
// (either may be nil).
func NewHierarchy(m *config.Machine, l1dPF, l2PF Prefetcher) *Hierarchy {
	h := &Hierarchy{Mem: &Memory{Latency: uint64(m.MemLat)}}
	h.L3 = New("L3", m.L3, h.Mem, nil)
	h.L2 = New("L2", m.L2, h.L3, l2PF)
	h.L1D = New("L1D", m.L1D, h.L2, l1dPF)
	h.L1I = New("L1I", m.L1I, h.L2, nil)
	return h
}
