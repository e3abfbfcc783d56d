package bp

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func TestFoldedHistoryWindowed(t *testing.T) {
	// The fold only depends on the newest histLen bits: two histories
	// that agree on that window but differ before it fold identically.
	mk := func(prefix []bool) *HistorySet {
		hs := NewHistorySet([]int{13}, []int{7})
		for _, b := range prefix {
			hs.Push(b)
		}
		// Common suffix of exactly 13 bits.
		for i := 0; i < 13; i++ {
			hs.Push(i%3 == 1)
		}
		return hs
	}
	a := mk([]bool{true, true, false, true, false, false, true})
	b := mk([]bool{false, false, true, false, true})
	if a.Fold(0) != b.Fold(0) {
		t.Errorf("folds differ despite identical windows: %#x vs %#x", a.Fold(0), b.Fold(0))
	}
	if a.Fold(0) >= 1<<7 {
		t.Errorf("fold exceeds width: %#x", a.Fold(0))
	}
}

func TestFoldedSensitivity(t *testing.T) {
	// Two histories differing in one recent bit must fold differently
	// (with overwhelming probability for these parameters).
	a := NewHistorySet([]int{16}, []int{8})
	b := NewHistorySet([]int{16}, []int{8})
	for i := 0; i < 100; i++ {
		a.Push(i%3 == 0)
		b.Push(i%3 == 0)
	}
	a.Push(true)
	b.Push(false)
	if a.Fold(0) == b.Fold(0) {
		t.Error("folds should differ after differing pushes")
	}
}

func TestGeometricLengths(t *testing.T) {
	ls := GeometricLengths(5, 640, 15)
	if ls[0] != 5 || ls[14] != 640 {
		t.Fatalf("endpoints wrong: %v", ls)
	}
	for i := 1; i < len(ls); i++ {
		if ls[i] <= ls[i-1] {
			t.Fatalf("not strictly increasing: %v", ls)
		}
	}
	if got := GeometricLengths(2, 128, 7); got[0] != 2 || got[6] != 128 {
		t.Errorf("VTAGE lengths wrong: %v", got)
	}
}

func newTestTAGE() *TAGE {
	return NewTAGE(TAGEConfig{BaseLog2: 10, TaggedLog2: 8, Tables: 6, TagBits: 9, MinHist: 5, MaxHist: 128})
}

func TestTAGELearnsBias(t *testing.T) {
	tg := newTestTAGE()
	pc := uint64(0x400100)
	wrong := 0
	for i := 0; i < 2000; i++ {
		p := tg.Predict(pc)
		if i > 100 && !p.Taken {
			wrong++
		}
		tg.Train(pc, p, true)
	}
	if wrong > 10 {
		t.Errorf("TAGE failed to learn an always-taken branch: %d wrong", wrong)
	}
}

func TestTAGELearnsPattern(t *testing.T) {
	// A period-4 local pattern embedded in global history: T T T N ...
	tg := newTestTAGE()
	pc := uint64(0x400200)
	wrong := 0
	for i := 0; i < 8000; i++ {
		taken := i%4 != 3
		p := tg.Predict(pc)
		if i > 4000 && p.Taken != taken {
			wrong++
		}
		tg.Train(pc, p, taken)
	}
	rate := float64(wrong) / 4000
	if rate > 0.05 {
		t.Errorf("TAGE misprediction rate on period-4 pattern: %.3f", rate)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(64, 4)
	if _, ok := b.Lookup(0x1000); ok {
		t.Error("empty BTB should miss")
	}
	b.Insert(0x1000, 0x2000)
	if tgt, ok := b.Lookup(0x1000); !ok || tgt != 0x2000 {
		t.Error("BTB lookup after insert failed")
	}
	b.Insert(0x1000, 0x3000)
	if tgt, _ := b.Lookup(0x1000); tgt != 0x3000 {
		t.Error("BTB update failed")
	}
}

func TestBTBLRUEviction(t *testing.T) {
	b := NewBTB(16, 4) // 4 sets
	// Fill one set with 5 conflicting entries (stride = sets*4 bytes).
	stride := uint64(4 * 4)
	for i := uint64(0); i < 5; i++ {
		b.Insert(0x1000+i*stride, 0x9000+i)
	}
	// The first inserted (LRU) entry must be gone; the rest present.
	if _, ok := b.Lookup(0x1000); ok {
		t.Error("LRU entry should have been evicted")
	}
	for i := uint64(1); i < 5; i++ {
		if _, ok := b.Lookup(0x1000 + i*stride); !ok {
			t.Errorf("entry %d evicted wrongly", i)
		}
	}
}

func TestRAS(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS must underflow")
	}
	r.Push(1)
	r.Push(2)
	r.Push(3)
	for want := uint64(3); want >= 1; want-- {
		if got, ok := r.Pop(); !ok || got != want {
			t.Fatalf("pop = %d,%v want %d", got, ok, want)
		}
	}
	// Overflow wraps: deepest entries are lost.
	for i := uint64(1); i <= 6; i++ {
		r.Push(i)
	}
	for want := uint64(6); want >= 3; want-- {
		if got, ok := r.Pop(); !ok || got != want {
			t.Fatalf("after overflow pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("RAS depth after overflow should be capacity")
	}
}

func TestIndirect(t *testing.T) {
	p := NewIndirect(64)
	pc := uint64(0x4000)
	if _, ok := p.Lookup(pc); ok {
		t.Error("cold indirect predictor should miss")
	}
	// Pipeline usage: lookup then update at the same path point. A
	// monomorphic branch drives the path into a periodic orbit whose
	// slots all get trained, so second-half lookups hit.
	hits := 0
	for i := 0; i < 400; i++ {
		if tgt, ok := p.Lookup(pc); ok && tgt == 0x8000 && i >= 200 {
			hits++
		}
		p.Update(pc, 0x8000)
	}
	if hits < 150 {
		t.Errorf("monomorphic indirect branch hit only %d/200 in steady state", hits)
	}
}

func TestGlobalHistoryBitOrder(t *testing.T) {
	var h GlobalHistory
	h.Push(true)
	h.Push(false)
	h.Push(true) // newest
	if h.Bit(0) != 1 || h.Bit(1) != 0 || h.Bit(2) != 1 {
		t.Errorf("bit order wrong: %d %d %d", h.Bit(0), h.Bit(1), h.Bit(2))
	}
}

func TestHistorySetFoldBoundedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		hs := NewHistorySet([]int{31}, []int{9})
		for i := 0; i < 64; i++ {
			hs.Push(seed>>uint(i)&1 == 1)
		}
		return hs.Fold(0) < 1<<9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHistorySetSharesFolds: views with the same (length, width) share
// one fold, and every view still reads exactly what a set of its own
// would after the same pushes.
func TestHistorySetSharesFolds(t *testing.T) {
	lens := []int{5, 9, 5, 17, 9, 5, 640}
	widths := []int{10, 11, 10, 7, 11, 9, 10}
	hs := NewHistorySet(lens, widths)
	if got := hs.Folds(); got != 5 {
		t.Fatalf("distinct folds = %d, want 5", got)
	}
	own := make([]*HistorySet, len(lens))
	for i := range own {
		own[i] = NewHistorySet(lens[i:i+1], widths[i:i+1])
	}
	for n := 0; n < 3000; n++ {
		taken := (n*7+n/13)%5 < 2
		hs.Push(taken)
		for i, o := range own {
			o.Push(taken)
			if hs.Fold(i) != o.Fold(0) {
				t.Fatalf("push %d: view %d = %#x, own set %#x", n, i, hs.Fold(i), o.Fold(0))
			}
		}
	}
}

// TestTAGEFoldsDeduplicated: under Table 2 the index fold and the second
// tag fold are both 10 bits wide over the same length in all 15 tables,
// so a conditional branch updates 30 folds instead of 45.
func TestTAGEFoldsDeduplicated(t *testing.T) {
	m := config.Default()
	tg := NewTAGE(TAGEConfig{
		BaseLog2: m.BPBaseLog2, TaggedLog2: m.BPTaggedLog2, Tables: m.BPTables,
		TagBits: m.BPTagBits, MinHist: m.BPMinHist, MaxHist: m.BPMaxHist,
	})
	if got := tg.hist.Folds(); got != 30 {
		t.Fatalf("TAGE folds = %d, want 30", got)
	}
}
