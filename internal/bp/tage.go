package bp

// TAGE is a TAgged GEometric-history-length conditional branch predictor
// (Seznec 2011), configured per Table 2 of the paper: a bimodal base table
// plus 15 tagged tables with history lengths geometric between 5 and 640.
//
// In keeping with the trace-driven discipline of this simulator, Predict
// and Train are called back to back, in program order, with the actual
// outcome (by the pipeline's run-ahead producer, ahead of fetch); history
// is maintained on the correct path only.
type TAGE struct {
	base      []int8 // 2-bit bimodal counters, centered at 0 (-2..1)
	baseMask  uint64
	tables    []tageTable
	hist      *HistorySet // index views [0..n), tag views [n..2n), tag2 views [2n..3n)
	nTables   int
	useAlt    int8 // USE_ALT_ON_NA style counter
	tick      int  // useful-bit graceful reset ticker
	tickMax   int
	allocSeed uint64 // deterministic "random" for allocation choice
}

type tageTable struct {
	entries []tageEntry
	mask    uint64
	tagMask uint64
	histLen int
}

type tageEntry struct {
	ctr    int8 // 3-bit signed counter, -4..3; >= 0 means taken
	tag    uint16
	useful uint8 // 2-bit useful counter
}

// TAGEConfig sizes the predictor.
type TAGEConfig struct {
	BaseLog2   uint // bimodal table log2 entries
	TaggedLog2 uint // entries per tagged table, log2
	Tables     int  // number of tagged tables
	TagBits    uint
	MinHist    int
	MaxHist    int
}

// NewTAGE builds a predictor from the configuration.
func NewTAGE(c TAGEConfig) *TAGE {
	t := &TAGE{
		base:     make([]int8, 1<<c.BaseLog2),
		baseMask: 1<<c.BaseLog2 - 1,
		nTables:  c.Tables,
		tickMax:  1 << 18,
	}
	lens := GeometricLengths(c.MinHist, c.MaxHist, c.Tables)
	t.tables = make([]tageTable, c.Tables)
	foldLens := make([]int, 0, 3*c.Tables)
	foldWidths := make([]int, 0, 3*c.Tables)
	for i := 0; i < c.Tables; i++ {
		t.tables[i] = tageTable{
			entries: make([]tageEntry, 1<<c.TaggedLog2),
			mask:    1<<c.TaggedLog2 - 1,
			tagMask: 1<<c.TagBits - 1,
			histLen: lens[i],
		}
		foldLens = append(foldLens, lens[i])
		foldWidths = append(foldWidths, int(c.TaggedLog2))
	}
	for i := 0; i < c.Tables; i++ { // tag fold 1
		foldLens = append(foldLens, lens[i])
		foldWidths = append(foldWidths, int(c.TagBits))
	}
	for i := 0; i < c.Tables; i++ { // tag fold 2 (shifted, classic TAGE)
		foldLens = append(foldLens, lens[i])
		foldWidths = append(foldWidths, int(c.TagBits)-1)
	}
	t.hist = NewHistorySet(foldLens, foldWidths)
	t.allocSeed = 0x123456789abcdef
	return t
}

func (t *TAGE) index(pc uint64, ti int) uint64 {
	tb := &t.tables[ti]
	h := t.hist.Fold(ti)
	return (pc>>2 ^ pc>>6 ^ h ^ uint64(ti)*0x9e3779b1) & tb.mask
}

func (t *TAGE) tag(pc uint64, ti int) uint16 {
	tb := &t.tables[ti]
	h1 := t.hist.Fold(t.nTables + ti)
	h2 := t.hist.Fold(2*t.nTables + ti)
	return uint16((pc>>2 ^ h1 ^ h2<<1) & tb.tagMask)
}

// Prediction carries provider metadata from Predict to Train.
type Prediction struct {
	Taken    bool
	provider int // tagged table index of the provider, -1 for bimodal
	altTaken bool
	altProv  int // provider of the alternate prediction, -1 for bimodal
	provIdx  uint64
	altIdx   uint64
	provWeak bool
}

// Predict returns the predicted direction for the conditional branch at pc
// along with the metadata Train needs.
func (t *TAGE) Predict(pc uint64) Prediction {
	p := Prediction{provider: -1, altProv: -1}
	bi := pc >> 2 & t.baseMask
	baseTaken := t.base[bi] >= 0
	p.Taken, p.altTaken = baseTaken, baseTaken

	for ti := t.nTables - 1; ti >= 0; ti-- {
		idx := t.index(pc, ti)
		e := &t.tables[ti].entries[idx]
		if e.tag != t.tag(pc, ti) {
			continue
		}
		if p.provider < 0 {
			p.provider = ti
			p.provIdx = idx
			p.Taken = e.ctr >= 0
			p.provWeak = e.ctr == 0 || e.ctr == -1
		} else {
			p.altProv = ti
			p.altIdx = idx
			p.altTaken = e.ctr >= 0
			break
		}
	}
	if p.provider >= 0 && p.altProv < 0 {
		p.altTaken = baseTaken
	}
	// USE_ALT_ON_NA: when the provider entry is weak (newly allocated),
	// optionally trust the alternate prediction.
	if p.provider >= 0 && p.provWeak && t.useAlt >= 0 {
		p.Taken = p.altTaken
	}
	return p
}

// bump is a saturating counter update. The increment is computed
// branchlessly (+1/-1 from the direction bit) and the saturation bounds
// compile to conditional moves, replacing the doubly-nested branch that
// mispredicts on every alternating pattern.
func bump(ctr *int8, taken bool, min, max int8) {
	var d int8 = -1
	if taken {
		d = 1
	}
	n := *ctr + d
	if n > max {
		n = max
	}
	if n < min {
		n = min
	}
	*ctr = n
}

// Train updates the predictor with the actual outcome and pushes the
// outcome into the global history. It must be called exactly once per
// Predict, in prediction order.
func (t *TAGE) Train(pc uint64, p Prediction, taken bool) {
	mispred := p.Taken != taken

	// Update USE_ALT_ON_NA when provider was weak and alt differed.
	if p.provider >= 0 && p.provWeak && p.altTaken != (t.tables[p.provider].entries[p.provIdx].ctr >= 0) {
		if p.altTaken == taken {
			bump(&t.useAlt, true, -8, 7)
		} else {
			bump(&t.useAlt, false, -8, 7)
		}
	}

	// Provider update.
	if p.provider >= 0 {
		e := &t.tables[p.provider].entries[p.provIdx]
		bump(&e.ctr, taken, -4, 3)
		// Useful counter: provider correct and alt wrong → more useful.
		if p.altTaken != p.Taken || p.altProv >= 0 {
			if !mispred && p.altTaken != taken {
				if e.useful < 3 {
					e.useful++
				}
			} else if mispred && p.altTaken == taken {
				if e.useful > 0 {
					e.useful--
				}
			}
		}
	} else {
		bi := pc >> 2 & t.baseMask
		bump(&t.base[bi], taken, -2, 1)
	}

	// Allocation on misprediction: try to allocate an entry in a table
	// with longer history than the provider.
	if mispred && p.provider < t.nTables-1 {
		start := p.provider + 1
		// Deterministic pseudo-random start offset, as in TAGE, to avoid
		// ping-pong allocation.
		t.allocSeed = t.allocSeed*6364136223846793005 + 1442695040888963407
		if start < t.nTables-1 && t.allocSeed>>62&1 == 1 {
			start++
		}
		allocated := false
		for ti := start; ti < t.nTables; ti++ {
			idx := t.index(pc, ti)
			e := &t.tables[ti].entries[idx]
			if e.useful == 0 {
				e.tag = t.tag(pc, ti)
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			// Age useful bits along the allocation path.
			for ti := start; ti < t.nTables; ti++ {
				e := &t.tables[ti].entries[t.index(pc, ti)]
				if e.useful > 0 {
					e.useful--
				}
			}
		}
		// Graceful useful reset.
		t.tick++
		if t.tick >= t.tickMax {
			t.tick = 0
			for ti := range t.tables {
				for i := range t.tables[ti].entries {
					t.tables[ti].entries[i].useful >>= 1
				}
			}
		}
	}

	t.hist.Push(taken)
}

// StorageBits returns the predictor's storage budget in bits (counters,
// tags and useful bits; history registers excluded, as is conventional).
func (t *TAGE) StorageBits() int {
	bits := len(t.base) * 2
	for i := range t.tables {
		tb := &t.tables[i]
		tagBits := 0
		for m := tb.tagMask; m != 0; m >>= 1 {
			tagBits++
		}
		bits += len(tb.entries) * (3 + 2 + tagBits)
	}
	return bits
}
