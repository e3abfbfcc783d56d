package cache

// Reference-model property test: the cache's functional content behavior
// (which lines are resident, miss/hit classification) must agree with a
// trivially-correct map-based LRU model over long random access
// sequences. Timing is not modeled by the reference; residency and
// demand miss counts are.

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/prefetch"
	"repro/internal/xrand"
)

// refLRU is an obviously-correct set-associative LRU cache model.
type refLRU struct {
	sets  map[uint64][]uint64 // set index → line addresses, MRU first
	assoc int
	nsets uint64
}

func newRefLRU(cfg config.CacheConfig) *refLRU {
	return &refLRU{
		sets:  map[uint64][]uint64{},
		assoc: cfg.Assoc,
		nsets: uint64(cfg.Sets()),
	}
}

// access returns true on hit and updates recency/contents.
func (r *refLRU) access(la uint64) bool {
	idx := la % r.nsets
	set := r.sets[idx]
	for i, l := range set {
		if l == la {
			copy(set[1:i+1], set[:i])
			set[0] = la
			return true
		}
	}
	set = append([]uint64{la}, set...)
	if len(set) > r.assoc {
		set = set[:r.assoc]
	}
	r.sets[idx] = set
	return false
}

func TestCacheAgreesWithReferenceLRU(t *testing.T) {
	cfg := config.CacheConfig{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, LoadToUse: 2, MSHRs: 64}
	mem := &Memory{Latency: 50}
	c := New("L1", cfg, mem, nil)
	ref := newRefLRU(cfg)

	rng := xrand.New(0xcafe)
	cycle := uint64(0)
	misses := uint64(0)
	for i := 0; i < 50000; i++ {
		// A mix of hot lines, streaming, and random accesses.
		var addr uint64
		switch rng.Intn(3) {
		case 0:
			addr = 0x10000 + rng.Uint64n(16)*64 // hot set of 16 lines
		case 1:
			addr = 0x100000 + uint64(i%4096)*64 // stream
		default:
			addr = rng.Uint64n(1 << 22) // random over 4 MB
		}
		// Keep accesses far apart in time so every fill completes before
		// the next access (the reference has no timing).
		cycle += 100
		before := c.Misses
		c.Access(addr, cycle, rng.Intn(4) == 0, false)
		simMiss := c.Misses != before
		refMiss := !ref.access(addr >> 6)
		if simMiss != refMiss {
			t.Fatalf("step %d addr %#x: sim miss=%v, reference miss=%v", i, addr, simMiss, refMiss)
		}
		if simMiss {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("degenerate sequence: no misses")
	}
}

func TestHierarchyInclusionOfRecency(t *testing.T) {
	// Not strict inclusion (the hierarchy is non-inclusive), but any line
	// resident in L1D must hit somewhere at L1 cost — i.e. re-accessing
	// the most recent N < assoc lines of a set never misses.
	m := config.Default()
	h := NewHierarchy(m, nil, nil)
	cycle := uint64(0)
	lines := []uint64{0x1000, 0x41000, 0x81000, 0xc1000} // same L1 set region, 4 < 8 ways
	for pass := 0; pass < 4; pass++ {
		for _, a := range lines {
			cycle += 200
			h.L1D.Access(a, cycle, false, false)
		}
	}
	// After the first pass everything hits.
	if h.L1D.Misses != uint64(len(lines)) {
		t.Errorf("misses = %d, want %d compulsory only", h.L1D.Misses, len(lines))
	}
}

// Differential MSHR test: refCache is the original linear-scan cache
// level, kept verbatim apart from a flat line array (the lazy chunks of
// Cache read as all-invalid lines, so residency is unaffected). Every
// ordering quirk of its MSHR scans feeds into timing, and Cache must
// return the same ready cycle for every access and hold the same
// counters after every step.

type refMSHR struct {
	valid bool
	tag   uint64 // full line address
	ready uint64
}

type refCache struct {
	cfg      config.CacheConfig
	lines    []line
	assoc    int
	lineBits uint
	setMask  uint64
	next     Level
	mshrs    []refMSHR
	pf       Prefetcher
	clock    uint64

	Accesses, Misses, Writebacks, PFIssued, PFUseful, MSHRConflict uint64
}

func newRefCache(cfg config.CacheConfig, next Level, pf Prefetcher) *refCache {
	nsets := cfg.Sets()
	c := &refCache{
		cfg:     cfg,
		lines:   make([]line, nsets*cfg.Assoc),
		assoc:   cfg.Assoc,
		setMask: uint64(nsets - 1),
		next:    next,
		mshrs:   make([]refMSHR, cfg.MSHRs),
		pf:      pf,
	}
	for cfg.LineBytes>>c.lineBits > 1 {
		c.lineBits++
	}
	return c
}

func (c *refCache) set(la uint64) []line {
	base := int(la&c.setMask) * c.assoc
	return c.lines[base : base+c.assoc]
}

func (c *refCache) lookup(la uint64) *line {
	set := c.set(la)
	for i := range set {
		if set[i].tag&(lnValid|lnTagMask) == la|lnValid {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) Access(addr uint64, cycle uint64, write, prefetch bool) uint64 {
	la := addr >> c.lineBits
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
		for i := range c.mshrs {
			if c.mshrs[i].valid && c.mshrs[i].tag == la && c.mshrs[i].ready > ready {
				ready = c.mshrs[i].ready
				break
			}
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

func (c *refCache) Prefetch(addr uint64, cycle uint64) {
	la := addr >> c.lineBits
	if c.lookup(la) != nil {
		return
	}
	for i := range c.mshrs {
		if c.mshrs[i].valid && c.mshrs[i].tag == la {
			return
		}
	}
	c.PFIssued++
	c.fillPrefetch(la, addr, cycle+uint64(c.cfg.LoadToUse))
}

func (c *refCache) fill(la, addr, cycle uint64, write, prefetch bool) uint64 {
	for i := range c.mshrs {
		if c.mshrs[i].valid && c.mshrs[i].tag == la {
			r := c.mshrs[i].ready
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
	}
	slot := -1
	var earliest uint64 = ^uint64(0)
	for i := range c.mshrs {
		if !c.mshrs[i].valid || c.mshrs[i].ready <= cycle {
			c.mshrs[i].valid = false
			if slot < 0 {
				slot = i
			}
		} else if c.mshrs[i].ready < earliest {
			earliest = c.mshrs[i].ready
		}
	}
	start := cycle
	if slot < 0 {
		c.MSHRConflict++
		start = earliest
		for i := range c.mshrs {
			if c.mshrs[i].valid && c.mshrs[i].ready == earliest {
				slot = i
				c.mshrs[i].valid = false
				break
			}
		}
	}
	ready := c.next.Access(addr, start, false, prefetch)
	c.mshrs[slot] = refMSHR{valid: true, tag: la, ready: ready}
	c.install(la, write, prefetch, cycle)
	return ready
}

func (c *refCache) fillPrefetch(la, addr, cycle uint64) {
	slot := -1
	for i := range c.mshrs {
		if !c.mshrs[i].valid || c.mshrs[i].ready <= cycle {
			c.mshrs[i].valid = false
			slot = i
			break
		}
	}
	if slot < 0 {
		return
	}
	ready := c.next.Access(addr, cycle, false, true)
	c.mshrs[slot] = refMSHR{valid: true, tag: la, ready: ready}
	ln := c.install(la, false, true, cycle)
	ln.tag |= lnPrefetched
}

func (c *refCache) install(la uint64, write, prefetch bool, cycle uint64) *line {
	set := c.set(la)
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

type cacheCounters struct {
	Accesses, Misses, Writebacks, PFIssued, PFUseful, MSHRConflict uint64
}

func (c *Cache) counters() cacheCounters {
	return cacheCounters{c.Accesses, c.Misses, c.Writebacks, c.PFIssued, c.PFUseful, c.MSHRConflict}
}

func (c *refCache) counters() cacheCounters {
	return cacheCounters{c.Accesses, c.Misses, c.Writebacks, c.PFIssued, c.PFUseful, c.MSHRConflict}
}

func TestMSHRFileMatchesLinearScan(t *testing.T) {
	seed := uint64(0)
	for _, mshrs := range []int{1, 2, 8, 56, 64} {
		for _, pf := range []bool{false, true} {
			seed++
			t.Run(fmt.Sprintf("mshrs=%d/prefetch=%v", mshrs, pf), func(t *testing.T) {
				diffMSHRChain(t, mshrs, pf, seed)
			})
		}
	}
}

// diffMSHRChain drives an L1→L2→memory chain of Cache and one of
// refCache with the same seeded stream. Issue cycles advance by a few
// cycles per access against a 100+-cycle memory, with jitter that lets
// them step backwards, so fills overlap and MSHR files fill up. Quiet
// phases issue mostly prefetches into a few L1 sets: prefetch fills
// evict lines without sweeping stale entries, so later demand misses and
// prefetches meet entries whose fill has returned but which are still
// in the file. The L2 has 512 sets, so Cache takes its lazily chunked
// line path.
func diffMSHRChain(t *testing.T, mshrs int, withPF bool, seed uint64) {
	l1cfg := config.CacheConfig{SizeBytes: 2 << 10, Assoc: 2, LineBytes: 64, LoadToUse: 3, MSHRs: mshrs}
	l2cfg := config.CacheConfig{SizeBytes: 256 << 10, Assoc: 8, LineBytes: 64, LoadToUse: 12, MSHRs: mshrs}
	var l1PF, l2PF, rl1PF, rl2PF Prefetcher
	if withPF {
		l1PF, rl1PF = prefetch.NewStride(256, 4, 64), prefetch.NewStride(256, 4, 64)
		l2PF, rl2PF = prefetch.NewAMPM(128, 2, 64), prefetch.NewAMPM(128, 2, 64)
	}
	mem, rmem := &Memory{Latency: 120}, &Memory{Latency: 120}
	l2, rl2 := New("L2", l2cfg, mem, l2PF), newRefCache(l2cfg, rmem, rl2PF)
	l1, rl1 := New("L1", l1cfg, l2, l1PF), newRefCache(l1cfg, rl2, rl1PF)

	rng := xrand.New(0x5eed_0000 + seed)
	now := uint64(1000)
	stream := uint64(0x200000)
	quiet := false
	for step := 0; step < 20000; step++ {
		if step%256 == 0 {
			quiet = rng.OneIn(3)
		}
		now += rng.Uint64n(4)
		if quiet {
			now += rng.Uint64n(24)
		}
		if rng.OneIn(500) {
			now += 400 // let everything drain now and then
		}
		cycle := now + rng.Uint64n(16) // issue order need not be cycle order
		var addr uint64
		switch rng.Intn(4) {
		case 0:
			addr = 0x10000 + rng.Uint64n(32)*64 // hot lines
		case 1:
			stream += 64 * (1 + rng.Uint64n(2)) // strided stream
			addr = stream
		default:
			addr = rng.Uint64n(4 << 20) // random over 4 MB
		}
		op := rng.Intn(10)
		if quiet {
			// Eight lines over two L1 sets (1KB apart), mostly prefetched.
			addr = 0x400000 + rng.Uint64n(8)<<10 + rng.Uint64n(2)*64
			op = []int{0, 0, 0, 0, 0, 0, 1, 5, 5, 2}[op]
		}
		var got, want uint64
		switch {
		case op == 0:
			l1.Prefetch(addr, cycle)
			rl1.Prefetch(addr, cycle)
		case op == 1:
			l2.Prefetch(addr, cycle)
			rl2.Prefetch(addr, cycle)
		default:
			write := op < 4
			got = l1.Access(addr, cycle, write, false)
			want = rl1.Access(addr, cycle, write, false)
		}
		if got != want {
			t.Fatalf("step %d addr %#x cycle %d: ready %d, linear scan %d", step, addr, cycle, got, want)
		}
		if g, w := l1.counters(), rl1.counters(); g != w {
			t.Fatalf("step %d: L1 counters %+v, linear scan %+v", step, g, w)
		}
		if g, w := l2.counters(), rl2.counters(); g != w {
			t.Fatalf("step %d: L2 counters %+v, linear scan %+v", step, g, w)
		}
		if mem.Accesses != rmem.Accesses {
			t.Fatalf("step %d: memory accesses %d, linear scan %d", step, mem.Accesses, rmem.Accesses)
		}
	}
	// The stream must actually exercise the paths the scans differ on.
	if l1.MSHRConflict == 0 && mshrs <= 8 {
		t.Errorf("no L1 MSHR conflicts with %d MSHRs", mshrs)
	}
	if withPF && l1.PFIssued == 0 {
		t.Error("prefetchers never issued")
	}
}
