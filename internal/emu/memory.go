// Package emu implements the functional emulator for the micro-ISA: a
// sparse paged memory, architectural register state, and an interpreter
// that executes programs and produces the dynamic instruction stream the
// timing model consumes. Functional execution is exact — every value a
// value predictor sees, predicts, and validates in the timing model is the
// architecturally computed one.
package emu

import "encoding/binary"

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse, paged, little-endian byte-addressable memory.
// Unmapped reads return zero; writes allocate pages on demand.
//
// Pages may be shared copy-on-write with snapshots (see Emulator.Snapshot):
// a page listed in cow is backed by an array some snapshot also references,
// and is copied privately before the first write. A one-entry translation
// cache (lastRead/lastWrite) short-circuits the page-map lookup for the
// common case of consecutive accesses hitting the same 4KB page.
type Memory struct {
	pages map[uint64]*[pageSize]byte
	// cow marks page numbers whose backing array is shared with one or
	// more snapshots; nil when no snapshot has been taken.
	cow map[uint64]struct{}

	// Last-page translation caches. A cache holds pn+1 so the zero value
	// is invalid (page number 0 is addressable). lastWrite is only ever a
	// privately owned page; lastRead may be a shared one.
	lastReadPN  uint64
	lastRead    *[pageSize]byte
	lastWritePN uint64
	lastWrite   *[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

// readPage returns the page containing addr for reading, or nil if
// unmapped.
//
//tvp:hotpath
func (m *Memory) readPage(addr uint64) *[pageSize]byte {
	pn := addr >> pageShift
	if pn+1 == m.lastReadPN {
		return m.lastRead
	}
	p := m.pages[pn]
	if p != nil {
		m.lastReadPN = pn + 1
		m.lastRead = p
	}
	return p
}

// writePage returns a privately owned page containing addr, allocating or
// copying a snapshot-shared page as needed.
//
//tvp:hotpath
func (m *Memory) writePage(addr uint64) *[pageSize]byte {
	pn := addr >> pageShift
	if pn+1 == m.lastWritePN {
		return m.lastWrite
	}
	p := m.pages[pn]
	if p == nil {
		//tvplint:ignore hotpathalloc first-touch page fault: one allocation per 4KB page mapped, amortized over thousands of stores
		p = new([pageSize]byte)
		m.pages[pn] = p
	} else if m.cow != nil {
		if _, shared := m.cow[pn]; shared {
			//tvplint:ignore hotpathalloc COW break: one copy per shared page per restored checkpoint, amortized over the whole run
			priv := new([pageSize]byte)
			*priv = *p
			m.pages[pn] = priv
			delete(m.cow, pn)
			p = priv
		}
	}
	m.lastWritePN = pn + 1
	m.lastWrite = p
	m.lastReadPN = pn + 1
	m.lastRead = p
	return p
}

// invalidateCache drops the translation caches (called when page
// ownership changes, e.g. on snapshot).
func (m *Memory) invalidateCache() {
	m.lastReadPN, m.lastRead = 0, nil
	m.lastWritePN, m.lastWrite = 0, nil
}

// LoadByte returns the byte at addr.
//
//tvp:hotpath
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.readPage(addr)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte stores b at addr.
//
//tvp:hotpath
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.writePage(addr)[addr&pageMask] = b
}

// Read returns the little-endian unsigned value of the given size (1, 2, 4
// or 8 bytes) at addr. Accesses may straddle page boundaries.
//
//tvp:hotpath
func (m *Memory) Read(addr uint64, size uint8) uint64 {
	off := addr & pageMask
	if off <= pageSize-uint64(size) {
		p := m.readPage(addr)
		if p == nil {
			return 0
		}
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low size bytes of v at addr, little-endian.
//
//tvp:hotpath
func (m *Memory) Write(addr uint64, v uint64, size uint8) {
	off := addr & pageMask
	if off <= pageSize-uint64(size) {
		p := m.writePage(addr)
		switch size {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		}
	}
	for i := uint8(0); i < size; i++ {
		m.StoreByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// LoadSegment copies bytes into memory starting at base, batching through
// whole pages.
func (m *Memory) LoadSegment(base uint64, data []byte) {
	for len(data) > 0 {
		p := m.writePage(base)
		off := base & pageMask
		n := copy(p[off:], data)
		data = data[n:]
		base += uint64(n)
	}
}

// PageCount returns the number of mapped 4KB pages (the resident footprint).
func (m *Memory) PageCount() int { return len(m.pages) }

// share freezes the current page set for snapshotting: it returns a copy
// of the page table and marks every page copy-on-write so neither the
// live memory nor any restored memory can mutate the shared arrays.
func (m *Memory) share() map[uint64]*[pageSize]byte {
	frozen := make(map[uint64]*[pageSize]byte, len(m.pages))
	if m.cow == nil {
		m.cow = make(map[uint64]struct{}, len(m.pages))
	}
	for pn, p := range m.pages {
		frozen[pn] = p
		m.cow[pn] = struct{}{}
	}
	m.invalidateCache()
	return frozen
}

// memoryFromShared builds a Memory over a frozen page set; every page
// starts copy-on-write.
func memoryFromShared(frozen map[uint64]*[pageSize]byte) *Memory {
	m := &Memory{
		pages: make(map[uint64]*[pageSize]byte, len(frozen)),
		cow:   make(map[uint64]struct{}, len(frozen)),
	}
	for pn, p := range frozen {
		m.pages[pn] = p
		m.cow[pn] = struct{}{}
	}
	return m
}
