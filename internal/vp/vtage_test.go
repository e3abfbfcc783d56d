package vp

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/xrand"
)

// vtage pairs a Predictor with the History that hashes for it, the way
// the pipeline splits them between its timing core and its run-ahead
// frontend.
type vtage struct {
	*Predictor
	hist *History
}

func newVTAGE(cfg config.VPConfig) vtage { return vtage{New(cfg), NewHistory(cfg)} }

func newPred(mode config.VPMode) vtage {
	cfg := config.Default().VP
	cfg.Mode = mode
	return newVTAGE(cfg)
}

// predict hashes pc and probes the tables into a fresh Lookup.
func predict(p vtage, pc uint64) *Lookup {
	l := new(Lookup)
	p.hist.Hash(pc, l)
	p.Predict(l)
	return l
}

// trainStable feeds n instances of a stable value at pc and returns the
// final lookup.
func trainStable(p vtage, pc, v uint64, n int) *Lookup {
	var l *Lookup
	for i := 0; i < n; i++ {
		l = predict(p, pc)
		p.Train(l, v)
	}
	return predict(p, pc)
}

func TestStableValueSaturates(t *testing.T) {
	for _, mode := range []config.VPMode{config.MVP, config.TVP, config.GVP} {
		p := newPred(mode)
		l := trainStable(p, 0x400100, 0, 600)
		if !l.Confident || l.Value != 0 {
			t.Errorf("%v: stable 0 not confidently predicted after 600 instances (conf=%v val=%d)",
				mode, l.Confident, l.Value)
		}
		p.Train(l, 0) // balance the last Predict
	}
}

func TestAlternatingValueNeverConfident(t *testing.T) {
	p := newPred(config.GVP)
	pc := uint64(0x400200)
	confident := 0
	for i := 0; i < 4000; i++ {
		l := predict(p, pc)
		if l.Confident {
			confident++
		}
		p.Train(l, uint64(i%2)) // alternates 0,1
	}
	// FPC with 1/16 increments requires ~112 consecutive corrects; an
	// alternating value resets constantly.
	if confident > 40 {
		t.Errorf("alternating value was confident %d times", confident)
	}
}

func TestModeRepresentability(t *testing.T) {
	mvp, tvp, gvp := newPred(config.MVP), newPred(config.TVP), newPred(config.GVP)
	cases := []struct {
		v             uint64
		mvp, tvp, gvp bool
	}{
		{0, true, true, true},
		{1, true, true, true},
		{2, false, true, true},
		{255, false, true, true},
		{256, false, false, true},
		{uint64(1) << 40, false, false, true},
		{^uint64(0), false, false, true}, // -1: MVP no, TVP yes? (-1 is 9-bit signed)
	}
	// -1 is representable by 9-bit signed inlining.
	cases[len(cases)-1].tvp = true
	for _, c := range cases {
		if got := mvp.Representable(c.v); got != c.mvp {
			t.Errorf("MVP Representable(%#x) = %v", c.v, got)
		}
		if got := tvp.Representable(c.v); got != c.tvp {
			t.Errorf("TVP Representable(%#x) = %v", c.v, got)
		}
		if got := gvp.Representable(c.v); got != c.gvp {
			t.Errorf("GVP Representable(%#x) = %v", c.v, got)
		}
	}
}

func TestInlineRepresentableProperty(t *testing.T) {
	f := func(v int64) bool {
		want := v >= -256 && v <= 255
		return InlineRepresentable(uint64(v)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMVPFiltersWideValues(t *testing.T) {
	p := newPred(config.MVP)
	pc := uint64(0x400300)
	// A stable wide value is unrepresentable for MVP: it must never
	// become a confident *correct* prediction.
	for i := 0; i < 3000; i++ {
		l := predict(p, pc)
		if l.Confident && l.Value == 42 {
			t.Fatal("MVP produced a confident prediction of a wide value")
		}
		p.Train(l, 42)
	}
}

func TestTVPQuantizeSignExtends(t *testing.T) {
	p := newPred(config.TVP)
	neg := uint64(math.MaxUint64) // -1
	if got := p.quantize(neg); got != neg {
		t.Errorf("quantize(-1) = %#x, want %#x", got, neg)
	}
	if got := p.quantize(255); got != 255 {
		t.Errorf("quantize(255) = %d", got)
	}
}

func TestSilencing(t *testing.T) {
	p := newPred(config.TVP)
	if p.Silenced(100) {
		t.Error("fresh predictor should not be silenced")
	}
	p.Silence(1000)
	want := uint64(1000 + config.Default().VP.SilenceCycles)
	if !p.Silenced(want-1) || p.Silenced(want) {
		t.Error("silencing window boundary wrong")
	}
	// A later silence extends; an earlier one does not shrink.
	p.Silence(2000)
	p.Silence(500)
	if !p.Silenced(2000 + uint64(config.Default().VP.SilenceCycles) - 1) {
		t.Error("silence must extend to the latest window")
	}
}

// TestSilencingSettingsInertUntilSilence: predictors that differ only in
// SilenceCycles and DynamicSilence, driven through the same Predict and
// Train sequence without a Silence call, give the same lookups and end in
// the same state, never silenced. One Silence call then separates their
// windows. This is the predictor half of the proof behind report's
// silencing-base sharing (DESIGN §6).
func TestSilencingSettingsInertUntilSilence(t *testing.T) {
	var ps []vtage
	for _, set := range []func(*config.VPConfig){
		func(*config.VPConfig) {},
		func(v *config.VPConfig) { v.SilenceCycles = 15 },
		func(v *config.VPConfig) { v.SilenceCycles = 1000 },
		func(v *config.VPConfig) { v.SilenceCycles, v.DynamicSilence = 60, true },
	} {
		cfg := config.Default().VP
		cfg.Mode = config.GVP
		set(&cfg)
		ps = append(ps, newVTAGE(cfg))
	}
	rng := xrand.New(7)
	for i := uint64(0); i < 50_000; i++ {
		pc := 0x400000 + rng.Uint64n(48)*4
		v := pc >> 2 & 3
		if rng.OneIn(5) {
			v = rng.Uint64n(1024)
		}
		taken := rng.OneIn(3)
		var first Lookup
		for k, p := range ps {
			if i%4 == 0 {
				p.hist.Push(taken)
			}
			l := predict(p, pc)
			if k == 0 {
				first = *l
			} else if *l != first {
				t.Fatalf("step %d: predictor %d looked up %+v, predictor 0 %+v", i, k, *l, first)
			}
			p.Train(l, v)
			if p.Silenced(i) || p.EverSilenced() {
				t.Fatalf("step %d: predictor %d silenced without a Silence call", i, k)
			}
		}
	}
	state := func(p vtage) Predictor {
		s := *p.Predictor
		s.cfg = config.VPConfig{}
		return s
	}
	for k := 1; k < len(ps); k++ {
		if !reflect.DeepEqual(state(ps[k]), state(ps[0])) {
			t.Errorf("predictor %d ended in another state than predictor 0", k)
		}
	}

	const now = 1_000_000
	for k, p := range ps {
		p.Silence(now)
		if !p.EverSilenced() {
			t.Errorf("predictor %d: EverSilenced false after Silence", k)
		}
	}
	for k, window := range []uint64{250, 15, 1000, 60} {
		if p := ps[k]; !p.Silenced(now+window-1) || p.Silenced(now+window) {
			t.Errorf("predictor %d: silenced window is not %d cycles", k, window)
		}
	}
}

func TestStorageMatchesPaper(t *testing.T) {
	// §3.3: the Table 2 VTAGE geometry costs 55.2 KB with 64-bit
	// predictions, 13.9 KB with 9-bit, 7.9 KB with 1-bit.
	for _, tc := range []struct {
		mode config.VPMode
		kb   float64
	}{
		{config.GVP, 55.2}, {config.TVP, 13.9}, {config.MVP, 7.9},
	} {
		got := newPred(tc.mode).StorageKB()
		if math.Abs(got-tc.kb) > 0.15 {
			t.Errorf("%v storage = %.2f KB, want ≈ %.1f KB", tc.mode, got, tc.kb)
		}
	}
}

func TestStorageOrdering(t *testing.T) {
	mvp := newPred(config.MVP).StorageBits()
	tvp := newPred(config.TVP).StorageBits()
	gvp := newPred(config.GVP).StorageBits()
	if !(mvp < tvp && tvp < gvp) {
		t.Errorf("storage ordering violated: %d %d %d", mvp, tvp, gvp)
	}
}

func TestBudgetScaling(t *testing.T) {
	base := config.Default()
	small := base.WithVPBudgetScale(-1)
	cfgB, cfgS := base.VP, small.VP
	cfgB.Mode, cfgS.Mode = config.GVP, config.GVP
	b, s := New(cfgB).StorageBits(), New(cfgS).StorageBits()
	if s >= b {
		t.Errorf("halved geometry not smaller: %d vs %d", s, b)
	}
	ratio := float64(b) / float64(s)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("scale ratio = %.2f, want ≈ 2", ratio)
	}
}

func TestTrainRecoversAfterValueChange(t *testing.T) {
	p := newPred(config.GVP)
	pc := uint64(0x400400)
	trainStableN := func(v uint64, n int) {
		for i := 0; i < n; i++ {
			l := predict(p, pc)
			p.Train(l, v)
		}
	}
	trainStableN(7, 600)
	if l := predict(p, pc); !l.Confident || l.Value != 7 {
		t.Fatal("did not learn first value")
	} else {
		p.Train(l, 7)
	}
	trainStableN(1234, 800)
	l := predict(p, pc)
	if !l.Confident || l.Value != 1234 {
		t.Errorf("did not re-learn after phase change: conf=%v val=%d", l.Confident, l.Value)
	}
	p.Train(l, 1234)
}

func TestHistoryDistinguishesContexts(t *testing.T) {
	// The same PC producing context-dependent values: with global branch
	// history, VTAGE's tagged tables can separate the contexts.
	p := newPred(config.GVP)
	pc := uint64(0x400500)
	correct, used := 0, 0
	for i := 0; i < 20000; i++ {
		ctx := i % 2
		p.hist.Push(ctx == 1)
		p.hist.Push(ctx == 0)
		p.hist.Push(true)
		l := predict(p, pc)
		v := uint64(100 + ctx)
		if i > 10000 && l.Confident {
			used++
			if l.Value == v {
				correct++
			}
		}
		p.Train(l, v)
	}
	if used == 0 {
		t.Skip("no confident predictions formed; context too hard for this geometry")
	}
	if acc := float64(correct) / float64(used); acc < 0.95 {
		t.Errorf("context accuracy = %.3f (%d/%d)", acc, correct, used)
	}
}

func TestPredBits(t *testing.T) {
	if newPred(config.MVP).PredBits() != 1 ||
		newPred(config.TVP).PredBits() != 9 ||
		newPred(config.GVP).PredBits() != 64 {
		t.Error("per-entry prediction widths wrong (§3.3)")
	}
}

func TestDynamicSilencingBacksOff(t *testing.T) {
	cfg := config.Default().VP
	cfg.Mode = config.MVP
	cfg.DynamicSilence = true
	cfg.SilenceCycles = 20
	p := New(cfg)
	// First misprediction: window = 20.
	p.Silence(1000)
	if !p.Silenced(1019) || p.Silenced(1020) {
		t.Error("first dynamic window must equal the configured base")
	}
	// Second misprediction: window doubled to 40.
	p.Silence(2000)
	if !p.Silenced(2039) || p.Silenced(2040) {
		t.Error("second dynamic window must double")
	}
	// The window is capped at 8×.
	for i := 0; i < 10; i++ {
		p.Silence(uint64(3000 + i*10000))
	}
	p.Silence(200000)
	if p.Silenced(200000 + 8*20) {
		t.Error("dynamic window must cap at 8× the base")
	}
}

func TestDynamicSilencingDecays(t *testing.T) {
	cfg := config.Default().VP
	cfg.Mode = config.GVP
	cfg.DynamicSilence = true
	cfg.SilenceCycles = 64
	p := newVTAGE(cfg)
	for i := 0; i < 6; i++ {
		p.Silence(uint64(i) * 100000)
	}
	// Accumulate correct trainings on a stable value to shrink the window.
	pc := uint64(0x400800)
	for i := 0; i < 3*1024+300; i++ {
		l := predict(p, pc)
		p.Train(l, 9)
	}
	p.Silence(10_000_000)
	// After ≥3 decays from the 512-cap the window is at most 128.
	if p.Silenced(10_000_000 + 129) {
		t.Error("window did not decay after sustained correct predictions")
	}
}

// TestHistoryFoldsDeduplicated: under Table 2 the first two tagged
// tables fold 9-bit indices and 9-bit tags over the same lengths, so
// VTAGE's 14 views need only 12 distinct folds.
func TestHistoryFoldsDeduplicated(t *testing.T) {
	if got := NewHistory(config.Default().VP).hist.Folds(); got != 12 {
		t.Fatalf("VTAGE folds = %d, want 12", got)
	}
}
