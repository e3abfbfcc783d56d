package prefetch

// AMPM is an Access Map Pattern Matching prefetcher (Ishii et al., ICS
// 2009) for the L2. It tracks per-zone bit maps of accessed cache lines
// and, on each access, tests candidate strides k by checking whether the
// lines at -k and -2k relative to the current one were accessed; confirmed
// strides generate prefetches at +k (up to Degree per access).
type AMPM struct {
	zones    []ampmZone
	mask     uint64
	lineBits uint
	zoneLog2 uint // lines per zone, log2
	degree   int
	out      []uint64
}

// ampmZone is one entry of the direct-mapped zone table.
type ampmZone struct {
	valid bool
	tag   uint64
	bits  []uint64
}

const ampmMaxStride = 16

// NewAMPM returns an AMPM prefetcher tracking the given number of 4KB
// zones with the given prefetch degree.
func NewAMPM(zones, degree, lineBytes int) *AMPM {
	for zones&(zones-1) != 0 {
		zones &= zones - 1
	}
	if zones == 0 {
		zones = 64
	}
	a := &AMPM{
		zones:  make([]ampmZone, zones),
		mask:   uint64(zones - 1),
		degree: degree,
		out:    make([]uint64, 0, degree),
	}
	for lineBytes>>a.lineBits > 1 {
		a.lineBits++
	}
	a.zoneLog2 = 12 - a.lineBits // 4KB zones
	words := (1 << a.zoneLog2) / 64
	if words == 0 {
		words = 1
	}
	for i := range a.zones {
		a.zones[i].bits = make([]uint64, words)
	}
	return a
}

func (a *AMPM) zone(la uint64) *ampmZone {
	zid := la >> a.zoneLog2
	z := &a.zones[zid&a.mask]
	if !z.valid || z.tag != zid {
		*z = ampmZone{valid: true, tag: zid, bits: z.bits}
		for i := range z.bits {
			z.bits[i] = 0
		}
	}
	return z
}

func (z *ampmZone) test(off int) bool {
	if off < 0 || off >= len(z.bits)*64 {
		return false
	}
	return z.bits[off/64]>>(uint(off)%64)&1 != 0
}

func (z *ampmZone) set(off int) {
	if off >= 0 && off < len(z.bits)*64 {
		z.bits[off/64] |= 1 << (uint(off) % 64)
	}
}

// Observe implements cache.Prefetcher.
func (a *AMPM) Observe(addr, _ uint64, _ bool) []uint64 {
	la := addr >> a.lineBits
	z := a.zone(la)
	off := int(la & (1<<a.zoneLog2 - 1))
	z.set(off)
	a.out = a.out[:0]
	for k := 1; k <= ampmMaxStride && len(a.out) < a.degree; k++ {
		if z.test(off-k) && z.test(off-2*k) && !z.test(off+k) {
			a.out = append(a.out, (la+uint64(k))<<a.lineBits)
		}
		if z.test(off+k) && z.test(off+2*k) && !z.test(off-k) && len(a.out) < a.degree && off-k >= 0 {
			a.out = append(a.out, (la-uint64(k))<<a.lineBits)
		}
	}
	return a.out
}
