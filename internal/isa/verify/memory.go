package verify

import (
	"encoding/binary"
	"sort"

	"repro/internal/prog"
)

const (
	// stackWindow bounds how far below StackTop the verifier allows
	// stack-relative addressing; stackSlack allows reads at or just
	// above the initial frame pointer.
	stackWindow = 1 << 16
	stackSlack  = 64

	// dataSlack extends the data window past the last segment so the
	// unrolled streaming kernels, whose post-indexed cursors overrun a
	// segment end by a few iterations' worth of bytes, stay in bounds.
	dataSlack = 4096

	// scanWork caps the number of addresses one summary scan may touch
	// (the mcf pointer ring scans 6 MiB / 64 B ≈ 98k slots).
	scanWork = 1 << 21
)

type span struct{ lo, hi uint64 } // half-open [lo, hi)

func (s span) overlaps(lo, hi uint64) bool { return lo < s.hi && s.lo < hi }

// memModel is the abstract memory: the program's initial segment bytes
// (read-only ground truth) plus a store summary computed to a fixpoint
// by the outer assume-guarantee loop in Verify. Loads read against the
// *assumed* summary from the previous outer iteration while stores
// accumulate into the *observed* one; Verify re-runs the dataflow until
// observed == assumed, at which point every load soundly accounts for
// every store that can reach it.
type memModel struct {
	segs  []prog.Segment // data segments, sorted by base
	text  span
	data  span // coalesced data window (+slack)
	stack span

	// Assumed summary (stable input for this iteration).
	smashed   []span            // canonical: sorted, disjoint, merged
	cells     map[uint64]AbsVal // exact 8-byte store targets → joined value
	cellAddrs []uint64          // sorted keys of cells

	// Observed summary (accumulates this iteration's stores).
	obsSmashed []span
	obsCells   map[uint64]AbsVal

	scans map[scanKey]AbsVal // memo for aligned segment scans
}

type scanKey struct {
	first uint64
	last  uint64
	step  uint64
	size  uint8
}

func newMemModel(p *prog.Program) *memModel {
	m := &memModel{
		cells:    map[uint64]AbsVal{},
		obsCells: map[uint64]AbsVal{},
		scans:    map[scanKey]AbsVal{},
	}
	m.segs = append(m.segs, p.Data...)
	sort.Slice(m.segs, func(i, j int) bool { return m.segs[i].Base < m.segs[j].Base })
	m.text = span{prog.TextBase, prog.TextBase + 4*uint64(len(p.Code))}
	if len(m.segs) > 0 {
		first := m.segs[0].Base
		last := first
		for _, s := range m.segs {
			if end := s.Base + uint64(len(s.Bytes)); end > last {
				last = end
			}
		}
		m.data = span{first, last + dataSlack}
	} else {
		m.data = span{prog.DataBase, prog.DataBase + dataSlack}
	}
	m.stack = span{prog.StackTop - stackWindow, prog.StackTop + stackSlack}
	return m
}

// beginIter promotes last iteration's observations to this iteration's
// assumptions and restarts observation from them (so the summary only
// grows, guaranteeing the outer loop terminates).
func (m *memModel) beginIter() {
	m.smashed = canonicalSpans(m.obsSmashed)
	m.obsSmashed = append([]span(nil), m.smashed...)
	for k, v := range m.obsCells {
		m.cells[k] = v
	}
	m.cellAddrs = m.cellAddrs[:0]
	for k := range m.cells {
		m.cellAddrs = append(m.cellAddrs, k)
	}
	sortU64(m.cellAddrs)
	m.obsCells = map[uint64]AbsVal{}
	for k, v := range m.cells {
		m.obsCells[k] = v
	}
}

// stable reports whether the last iteration observed nothing beyond
// what it assumed.
func (m *memModel) stable() bool {
	obs := canonicalSpans(m.obsSmashed)
	if len(obs) != len(m.smashed) {
		return false
	}
	for i := range obs {
		if obs[i] != m.smashed[i] {
			return false
		}
	}
	if len(m.obsCells) != len(m.cells) {
		return false
	}
	for k, v := range m.obsCells {
		old, ok := m.cells[k]
		if !ok || !v.eq(old) {
			return false
		}
	}
	return true
}

func canonicalSpans(in []span) []span {
	if len(in) == 0 {
		return nil
	}
	s := append([]span(nil), in...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := s[:1]
	for _, sp := range s[1:] {
		last := &out[len(out)-1]
		if sp.lo <= last.hi {
			if sp.hi > last.hi {
				last.hi = sp.hi
			}
		} else {
			out = append(out, sp)
		}
	}
	return out
}

func (m *memModel) smashOverlaps(lo, hi uint64) bool {
	i := sort.Search(len(m.smashed), func(i int) bool { return m.smashed[i].hi > lo })
	return i < len(m.smashed) && m.smashed[i].lo < hi
}

// cellsIn returns the assumed cell addresses intersecting [lo, hi).
func (m *memModel) cellsIn(lo, hi uint64) []uint64 {
	if len(m.cellAddrs) == 0 {
		return nil
	}
	start := lo
	if start >= 8 {
		start -= 8 // an 8-byte cell starting up to 7 bytes below lo overlaps
	} else {
		start = 0
	}
	i, _ := searchU64(m.cellAddrs, start)
	j := i
	for j < len(m.cellAddrs) && m.cellAddrs[j] < hi {
		j++
	}
	// Filter to true overlap.
	out := m.cellAddrs[i:j]
	for len(out) > 0 && out[0]+8 <= lo {
		out = out[1:]
	}
	return out
}

// initRead reads size initial bytes at addr (little-endian), with
// unmapped bytes reading as zero like emu.Memory.
func (m *memModel) initRead(addr uint64, size uint8) uint64 {
	// Fast path: whole read inside one segment.
	if seg := m.findSeg(addr); seg >= 0 {
		s := &m.segs[seg]
		off := addr - s.Base
		if off+uint64(size) <= uint64(len(s.Bytes)) {
			switch size {
			case 8:
				return binary.LittleEndian.Uint64(s.Bytes[off:])
			case 4:
				return uint64(binary.LittleEndian.Uint32(s.Bytes[off:]))
			case 2:
				return uint64(binary.LittleEndian.Uint16(s.Bytes[off:]))
			case 1:
				return uint64(s.Bytes[off])
			}
		}
	}
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(m.initByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

func (m *memModel) initByte(addr uint64) byte {
	if seg := m.findSeg(addr); seg >= 0 {
		s := &m.segs[seg]
		return s.Bytes[addr-s.Base]
	}
	return 0
}

func (m *memModel) findSeg(addr uint64) int {
	lo, hi := 0, len(m.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		s := &m.segs[mid]
		if addr < s.Base {
			hi = mid
		} else if addr >= s.Base+uint64(len(s.Bytes)) {
			lo = mid + 1
		} else {
			return mid
		}
	}
	return -1
}

// load computes the abstract value a load of the given size may observe
// at the abstract effective address. It is only called after the bounds
// check passed, so the footprint is inside the data/stack windows.
func (m *memModel) load(ea AbsVal, size uint8) AbsVal {
	if cands, ok := ea.candidates(pairCap); ok {
		var out AbsVal
		out.lo, out.hi = 1, 0 // empty; joins replace it
		for _, a := range cands {
			out = out.join(m.readOne(a, size))
		}
		if out.isEmpty() {
			return sizeTop(size)
		}
		return out
	}
	// Too many candidates: summarize the whole span.
	lo, hi := ea.lo, ea.hi+uint64(size)
	if hi < ea.hi {
		return sizeTop(size)
	}
	if m.smashOverlaps(lo, hi) || len(m.cellsIn(lo, hi)) > 0 {
		return sizeTop(size)
	}
	return m.scanSummary(ea, size)
}

// readOne reads one concrete address against initial bytes + assumed
// store summary.
func (m *memModel) readOne(addr uint64, size uint8) AbsVal {
	end := addr + uint64(size)
	if m.smashOverlaps(addr, end) {
		return sizeTop(size)
	}
	cells := m.cellsIn(addr, end)
	switch {
	case len(cells) == 0:
		return exact(m.initRead(addr, size))
	case len(cells) == 1 && cells[0] == addr && size == 8:
		// The only overlapping store is an exact 8-byte cell at this
		// address: the load sees either the initial word or one of the
		// stored values.
		return exact(m.initRead(addr, 8)).join(m.cells[addr])
	default:
		return sizeTop(size) // partially-overlapping store; give up on the value
	}
}

// scanSummary joins the initial words an unenumerably-wide but clean
// (unstored-to) load may observe: it walks the EA's address stride
// across the whole interval, reading each footprint through initRead
// so unmapped bytes contribute zero exactly like the emulator. Only
// addresses actually on the stride matter — a footprint that merely
// straddles a segment end reads the mapped bytes plus trailing zeros,
// not a phantom all-zero word.
func (m *memModel) scanSummary(ea AbsVal, size uint8) AbsVal {
	step, residue := ea.stride()
	if (ea.hi-ea.lo)/step >= scanWork {
		return sizeTop(size)
	}
	first := ea.lo
	if rem := first & (step - 1); rem != residue {
		first += (residue - rem) & (step - 1)
	}
	if first < ea.lo || first > ea.hi {
		return sizeTop(size) // alignment overflowed past the interval
	}
	return m.scanRange(first, ea.hi, step, size)
	// The scan ignores the non-contiguous known bits of ea; values at
	// filtered-out addresses only widen the result, so this stays sound.
}

func (m *memModel) scanRange(first, last, step uint64, size uint8) AbsVal {
	key := scanKey{first: first, last: last, step: step, size: size}
	if v, ok := m.scans[key]; ok {
		return v
	}
	var minv, maxv, diff, base uint64
	minv = ^uint64(0)
	n := 0
	for a := first; a <= last; a += step {
		v := m.initRead(a, size)
		if n == 0 {
			base = v
		}
		if v < minv {
			minv = v
		}
		if v > maxv {
			maxv = v
		}
		diff |= v ^ base
		n++
		if a > ^uint64(0)-step {
			break
		}
	}
	var out AbsVal
	if n == 0 {
		out.lo, out.hi = 1, 0
	} else {
		out = AbsVal{lo: minv, hi: maxv, known: ^diff, bits: base & ^diff}.tighten()
	}
	m.scans[key] = out
	return out
}

// store records a store's footprint and value into the observed
// summary. Exact 8-byte stores become cells (so a reloaded pointer
// keeps its value); everything else smears its whole address span.
func (m *memModel) store(ea AbsVal, size uint8, val AbsVal) {
	if a, ok := ea.isExact(); ok && size == 8 {
		if old, ok := m.obsCells[a]; ok {
			m.obsCells[a] = old.join(val)
		} else {
			m.obsCells[a] = val
		}
		return
	}
	lo, hi := ea.lo, ea.hi+uint64(size)
	if hi < ea.hi { // wrapped; smear everything addressable
		lo, hi = 0, ^uint64(0)
	}
	m.obsSmashed = append(m.obsSmashed, span{lo, hi})
}
