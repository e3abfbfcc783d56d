// Package bp implements the frontend predictors of the simulated core: a
// TAGE conditional branch predictor (Seznec 2011), a set-associative BTB,
// a tagged indirect target cache, and a return address stack. It also
// exports the global/folded branch history machinery that the VTAGE value
// predictor (internal/vp) shares, since VTAGE indexes its tables with the
// same kind of geometric global-history hashes (Perais & Seznec 2014).
//
// Because the timing model simulates the correct path only (see
// DESIGN.md), history is updated with actual branch outcomes at prediction
// time, the standard trace-driven discipline: wrong-path history pollution
// is not modeled, and no history checkpoint/repair is needed.
package bp

import "math"

// HistoryBits is the capacity of the global history ring. It must exceed
// the longest history length any predictor table uses (640 in Table 2).
const HistoryBits = 1024

// GlobalHistory is a shift register of conditional branch directions, most
// recent first, backed by a ring so long histories are cheap.
type GlobalHistory struct {
	bits [HistoryBits / 64]uint64
	pos  int // position of the most recently inserted bit
}

// Push inserts the newest direction bit. Branchless: the ring size is a
// power of two, so position wrap is a mask, and the bit is cleared then
// OR-merged instead of taking a direction-dependent branch.
func (h *GlobalHistory) Push(taken bool) {
	h.pos = (h.pos + 1) & (HistoryBits - 1)
	w, b := h.pos>>6, uint(h.pos&63)
	var t uint64
	if taken {
		t = 1
	}
	h.bits[w] = h.bits[w]&^(1<<b) | t<<b
}

// Bit returns direction bit i, where 0 is the most recent. Masking the
// (possibly negative) two's-complement offset replaces the divide/branch
// modulo — this runs once per folded view per branch, the hottest loop in
// the predictor.
func (h *GlobalHistory) Bit(i int) uint64 {
	p := (h.pos - i) & (HistoryBits - 1)
	return h.bits[p>>6] >> (uint(p) & 63) & 1
}

// FoldedHistory incrementally maintains the XOR-fold of the newest
// histLen history bits down to width bits, the classic TAGE construction:
// pushing a bit XORs it in at the bottom and removes the bit leaving the
// window at its folded position. The geometry fields are narrow
// (histLen <= HistoryBits, width and outPos < 64) so the struct packs
// into 16 bytes — HistorySet.Push walks every view per branch, and the
// folds slice staying dense is what keeps that loop in cache.
type FoldedHistory struct {
	Folded  uint64
	histLen uint16
	width   uint8
	outPos  uint8 // position within the fold where the outgoing bit lands
}

// NewFolded returns a fold of histLen bits into width bits.
func NewFolded(histLen, width int) FoldedHistory {
	return FoldedHistory{histLen: uint16(histLen), width: uint8(width), outPos: uint8(histLen % width)}
}

// Update folds in the new direction bit; old must be the direction bit
// that is histLen pushes old (obtained from GlobalHistory.Bit before the
// push).
func (f *FoldedHistory) Update(newBit, oldBit uint64) {
	f.Folded = f.Folded<<1 | newBit
	f.Folded ^= oldBit << uint(f.outPos)
	f.Folded ^= f.Folded >> uint(f.width)
	f.Folded &= 1<<uint(f.width) - 1
}

// HistorySet bundles a global history with per-table folded views for
// indices and tags; both TAGE and VTAGE own one. Views with the same
// (history length, width) pair always hold the same value — they start at
// zero and fold the same bits — so the set keeps one fold per distinct
// pair and maps each view onto it: under Table 2, TAGE's index fold and
// its second tag fold are both 10 bits wide over the same length, so a
// conditional branch updates 30 folds instead of 45.
type HistorySet struct {
	Global GlobalHistory
	folds  []FoldedHistory // one per distinct (length, width), construction order
	view   []uint8         // per view: index into folds

	// Outgoing-bit sharing: the outgoing bit depends only on the history
	// length, and several folds share a length (index and tag widths).
	// Push reads each unique length once into scratch and fans it out
	// through lenIdx.
	uniqLens []uint16 // deduplicated histLens, construction order
	lenIdx   []uint8  // per fold: index into uniqLens/scratch
	scratch  []uint64
}

// NewHistorySet creates folded views; view i folds lens[i] bits into
// widths[i] bits.
func NewHistorySet(lens, widths []int) *HistorySet {
	if len(lens) != len(widths) {
		panic("bp: lens/widths mismatch")
	}
	n := len(lens)
	hs := &HistorySet{
		folds:    make([]FoldedHistory, 0, n),
		view:     make([]uint8, n),
		uniqLens: make([]uint16, 0, n),
		lenIdx:   make([]uint8, 0, n),
	}
	for i := range lens {
		f := NewFolded(lens[i], widths[i])
		k := -1
		for j, g := range hs.folds {
			if g.histLen == f.histLen && g.width == f.width {
				k = j
				break
			}
		}
		if k < 0 {
			k = len(hs.folds)
			hs.folds = append(hs.folds, f)
			hs.lenIdx = append(hs.lenIdx, uint8(hs.lengthIndex(f.histLen)))
		}
		if k > 255 {
			panic("bp: too many distinct folds")
		}
		hs.view[i] = uint8(k)
	}
	hs.scratch = make([]uint64, len(hs.uniqLens))
	return hs
}

// lengthIndex returns the index of l in uniqLens, appending it if new.
func (hs *HistorySet) lengthIndex(l uint16) int {
	for j, u := range hs.uniqLens {
		if u == l {
			return j
		}
	}
	hs.uniqLens = append(hs.uniqLens, l)
	return len(hs.uniqLens) - 1
}

// Fold returns the current folded value of view i.
func (hs *HistorySet) Fold(i int) uint64 { return hs.folds[hs.view[i]].Folded }

// Folds returns the number of distinct folds Push updates.
func (hs *HistorySet) Folds() int { return len(hs.folds) }

// Push inserts a new direction bit, updating every distinct fold. The
// outgoing bit is read once per unique history length, not once per fold.
func (hs *HistorySet) Push(taken bool) {
	var nb uint64
	if taken {
		nb = 1
	}
	scratch := hs.scratch
	for i, l := range hs.uniqLens {
		scratch[i] = hs.Global.Bit(int(l) - 1)
	}
	folds := hs.folds
	for i := range folds {
		folds[i].Update(nb, scratch[hs.lenIdx[i]])
	}
	hs.Global.Push(taken)
}

// GeometricLengths returns n history lengths forming a geometric series
// from minLen to maxLen inclusive (n >= 2), as used by TAGE and VTAGE.
func GeometricLengths(minLen, maxLen, n int) []int {
	if n == 1 {
		return []int{minLen}
	}
	out := make([]int, n)
	ratio := math.Pow(float64(maxLen)/float64(minLen), 1/float64(n-1))
	l := float64(minLen)
	prev := 0
	for i := 0; i < n; i++ {
		v := int(l + 0.5)
		if v <= prev {
			v = prev + 1
		}
		out[i] = v
		prev = v
		l *= ratio
	}
	out[n-1] = maxLen
	return out
}
