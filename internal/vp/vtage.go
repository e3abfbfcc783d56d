// Package vp implements the VTAGE value predictor (Perais & Seznec, HPCA
// 2014) with Forward Probabilistic Counter (FPC) confidence, and the
// paper's three targeting policies layered on top of it:
//
//   - MVP (Minimal VP): only 0x0 and 0x1 are predictable; entries store a
//     single prediction bit (§3.1).
//   - TVP (Targeted VP): any 9-bit signed value is predictable; entries
//     store 9 bits and predictions are delivered by register-name
//     inlining (§3.2).
//   - GVP (Generic VP): any 64-bit value is predictable (§6.1).
//
// The targeting policy determines both the per-entry prediction width —
// and hence the predictor's storage footprint (§3.3: 55.2KB → 13.9KB →
// 7.9KB) — and which computed results can train or allocate entries.
//
// The predictor also implements the paper's post-misprediction silencing
// (§3.4.1): after a value misprediction the predictor keeps producing
// predictions for training purposes, but the pipeline must not use them
// for a configurable number of cycles, preventing the livelock that would
// otherwise occur because MVP/TVP refetch the mispredicted instruction.
package vp

import (
	"repro/internal/bp"
	"repro/internal/config"
	"repro/internal/xrand"
)

// MaxTables bounds the number of VTAGE tables (base + tagged) a
// configuration may use; Lookup carries fixed-size arrays of this length
// so prediction metadata can ride the VP-tracking FIFO without
// allocation.
const MaxTables = 12

// InlineMin and InlineMax bound the values representable by 9-bit signed
// register-name inlining (§3.2: "small constant ... signed 9-bit
// integer").
const (
	InlineMin = -256
	InlineMax = 255
)

// InlineRepresentable reports whether a 64-bit register value can be
// encoded in a 9-bit-signed inlined physical register name.
func InlineRepresentable(v uint64) bool {
	s := int64(v)
	return s >= InlineMin && s <= InlineMax
}

// Predictor holds VTAGE's tables: it probes them with the indices and
// tags a History computed (Predict) and trains them at retirement
// (Train), specialized by a targeting mode.
type Predictor struct {
	cfg     config.VPConfig
	base    []entry
	tables  [][]entry
	nTagged int
	rng     *xrand.Rand
	confMax uint8

	silenceUntil uint64
	everSilenced bool
	allocSeed    uint64

	// Dynamic silencing state (config.VPConfig.DynamicSilence).
	silWindow     int
	correctStreak int
}

type entry struct {
	pred   uint64
	tag    uint16
	conf   uint8
	useful uint8
}

// New builds a predictor from the configuration. The configuration's
// TableLog2[0] sizes the tagless base table; the remaining entries size
// the tagged tables.
func New(cfg config.VPConfig) *Predictor {
	n := tableCount(cfg)
	p := &Predictor{
		cfg:       cfg,
		base:      make([]entry, 1<<cfg.TableLog2[0]),
		nTagged:   n - 1,
		rng:       xrand.New(cfg.Seed),
		confMax:   uint8(1<<cfg.FPCBits - 1),
		allocSeed: 0xdeadbeefcafef00d,
	}
	p.tables = make([][]entry, p.nTagged)
	for i := range p.tables {
		p.tables[i] = make([]entry, 1<<cfg.TableLog2[i+1])
	}
	return p
}

func tableCount(cfg config.VPConfig) int {
	n := len(cfg.TableLog2)
	if n < 2 || n > MaxTables {
		panic("vp: need 2..MaxTables tables")
	}
	return n
}

// History is VTAGE's branch-history side: the folded global history and
// the per-table index and tag hashes computed from it. Both depend only
// on the conditional-branch stream and the instruction's PC, never on
// the tables' contents, so they are a pure function of program order:
// the pipeline's run-ahead frontend owns a History and hashes every
// instruction ahead of the timing core, which probes and trains the
// Predictor's tables with the result.
type History struct {
	hist     *bp.HistorySet // index views [0..n), tag views [n..2n)
	baseMask uint64
	masks    []uint64 // per tagged table: index mask
	tagMasks []uint64 // per tagged table: tag mask
}

// NewHistory builds the history for a configuration; the tagged tables'
// history lengths are geometric between MinHist and MaxHist.
func NewHistory(cfg config.VPConfig) *History {
	nTagged := tableCount(cfg) - 1
	h := &History{
		baseMask: 1<<cfg.TableLog2[0] - 1,
		masks:    make([]uint64, nTagged),
		tagMasks: make([]uint64, nTagged),
	}
	lens := bp.GeometricLengths(cfg.MinHist, cfg.MaxHist, nTagged)
	foldLens := make([]int, 0, 2*nTagged)
	foldWidths := make([]int, 0, 2*nTagged)
	for i := 0; i < nTagged; i++ {
		h.masks[i] = 1<<cfg.TableLog2[i+1] - 1
		h.tagMasks[i] = 1<<cfg.TagBits[i+1] - 1
		foldLens = append(foldLens, lens[i])
		foldWidths = append(foldWidths, int(cfg.TableLog2[i+1]))
	}
	for i := 0; i < nTagged; i++ {
		foldLens = append(foldLens, lens[i])
		foldWidths = append(foldWidths, int(cfg.TagBits[i+1]))
	}
	h.hist = bp.NewHistorySet(foldLens, foldWidths)
	return h
}

// Push inserts a conditional branch outcome into the global history. It
// must be called in program order, once per conditional branch.
func (h *History) Push(taken bool) { h.hist.Push(taken) }

// Hash fills l's table indices and tags for the instruction at pc from
// the current history. Slots past the configured tables keep whatever l
// held.
func (h *History) Hash(pc uint64, l *Lookup) {
	l.indices[0] = uint32(pc >> 2 & h.baseMask)
	n := len(h.masks)
	for ti := 0; ti < n; ti++ {
		l.indices[ti+1] = uint32((pc>>2 ^ pc>>7 ^ h.hist.Fold(ti) ^ uint64(ti+1)*0x85ebca6b) & h.masks[ti])
		l.tags[ti+1] = uint16((pc>>2 ^ h.hist.Fold(n+ti)<<1 ^ uint64(ti)*0xc2b2ae35) & h.tagMasks[ti])
	}
}

// Mode returns the targeting mode.
func (p *Predictor) Mode() config.VPMode { return p.cfg.Mode }

// Representable reports whether the targeting mode can predict value v at
// all (§3.1/§3.2: MVP → {0,1}; TVP → 9-bit signed; GVP → anything).
func (p *Predictor) Representable(v uint64) bool {
	switch p.cfg.Mode {
	case config.MVP:
		return v == 0 || v == 1
	case config.TVP:
		return InlineRepresentable(v)
	case config.GVP:
		return true
	}
	return false
}

// quantize clips a value to what an entry can physically store; callers
// must have checked Representable before trusting the stored prediction.
func (p *Predictor) quantize(v uint64) uint64 {
	switch p.cfg.Mode {
	case config.MVP:
		return v & 1
	case config.TVP:
		return uint64(int64(v<<55) >> 55) // sign-extend low 9 bits
	}
	return v
}

// Lookup carries one instruction's VTAGE state from History.Hash through
// Predict to Train: the indices and tags Hash computed, and the
// prediction and provider Predict found.
type Lookup struct {
	// Value is the predicted value (valid only when Hit).
	Value uint64
	// Hit reports whether any table provided a prediction.
	Hit bool
	// Confident reports whether the FPC counter is saturated, i.e. the
	// prediction may be used by the pipeline (§6.1).
	Confident bool

	provider int // -1 = base table, >= 0 = tagged table index
	indices  [MaxTables]uint32
	tags     [MaxTables]uint16
}

// Predict probes the tables at the indices and tags History.Hash wrote
// into l, which the caller owns (the pipeline passes its per-instruction
// ring slot, so the ~100-byte Lookup is never copied). It must be called
// in fetch order; l must later be passed to Train exactly once (at
// retirement), in order. Predict writes every other field Train reads.
func (p *Predictor) Predict(l *Lookup) {
	for ti := p.nTagged - 1; ti >= 0; ti-- {
		e := &p.tables[ti][l.indices[ti+1]]
		if e.tag == l.tags[ti+1] {
			l.provider = ti
			l.Hit = true
			l.Value = e.pred
			l.Confident = e.conf >= p.confMax && !p.cfg.NeverConfident
			return
		}
	}
	e := &p.base[l.indices[0]]
	l.provider = -1
	l.Hit = true
	l.Value = e.pred
	l.Confident = e.conf >= p.confMax && !p.cfg.NeverConfident
}

// Train updates the predictor with the architectural result of the
// instruction whose Predict filled l. It implements FPC confidence:
// correct predictions increment confidence with probability 1/FPCInvProb;
// incorrect ones reset it and (at zero confidence) replace the stored
// value. Values the targeting mode cannot represent reset confidence and
// never allocate (they are permanently filtered).
func (p *Predictor) Train(l *Lookup, actual uint64) {
	representable := p.Representable(actual)
	q := p.quantize(actual)

	var e *entry
	if l.provider >= 0 {
		e = &p.tables[l.provider][l.indices[l.provider+1]]
		// The entry may have been reallocated to another PC since
		// prediction; the tag check keeps training honest.
		if e.tag != l.tags[l.provider+1] {
			e = nil
		}
	} else {
		e = &p.base[l.indices[0]]
	}

	correct := l.Hit && l.Value == actual && representable

	if e != nil {
		if correct {
			p.decaySilence()
			if e.conf < p.confMax && p.rng.OneIn(p.cfg.FPCInvProb) {
				e.conf++
			}
			if l.provider >= 0 && e.useful < 1<<p.cfg.UsefulBits-1 {
				e.useful++
			}
		} else {
			if e.conf > 0 {
				e.conf = 0
			} else if representable {
				e.pred = q
			}
			if l.provider >= 0 && e.useful > 0 {
				e.useful--
			}
		}
	}

	// Allocate in a longer-history table on a (representable)
	// misprediction, VTAGE-style.
	if !correct && representable {
		start := l.provider + 1
		p.allocSeed = p.allocSeed*6364136223846793005 + 1442695040888963407
		if start < p.nTagged-1 && p.allocSeed>>62&1 == 1 {
			start++
		}
		for ti := start; ti < p.nTagged; ti++ {
			ne := &p.tables[ti][l.indices[ti+1]]
			if ne.useful == 0 {
				*ne = entry{pred: q, tag: l.tags[ti+1]}
				break
			}
			ne.useful--
		}
	}
}

// Silencing bounds for the dynamic scheme.
const (
	minSilence     = 15 // the paper's "very small number" that suffices
	maxSilenceMult = 8
	decayPeriod    = 1024 // correct trainings per halving
)

// Silence suppresses use of predictions after a value misprediction
// (§3.4.1). With static silencing the window is SilenceCycles; with
// dynamic silencing it doubles per misprediction (bounded) and decays as
// correct predictions accumulate, approximating the adaptive scheme the
// paper proposes.
//
// Silence is the only reader of SilenceCycles and the only writer of the
// state Silenced, decaySilence and the dynamic window consult
// (silenceUntil, silWindow, correctStreak); decaySilence returns early
// while silWindow is 0. Until the first Silence call, then, a predictor
// behaves identically under every SilenceCycles and DynamicSilence
// setting, and EverSilenced reports whether that call happened.
func (p *Predictor) Silence(now uint64) {
	p.everSilenced = true
	window := p.cfg.SilenceCycles
	if p.cfg.DynamicSilence {
		if p.silWindow == 0 {
			p.silWindow = p.cfg.SilenceCycles
			if p.silWindow < minSilence {
				p.silWindow = minSilence
			}
		}
		window = p.silWindow
		p.silWindow *= 2
		if cap := p.cfg.SilenceCycles * maxSilenceMult; p.silWindow > cap {
			p.silWindow = cap
		}
		p.correctStreak = 0
	}
	until := now + uint64(window)
	if until > p.silenceUntil {
		p.silenceUntil = until
	}
}

// decaySilence is called on every correct training when dynamic silencing
// is active.
func (p *Predictor) decaySilence() {
	if !p.cfg.DynamicSilence || p.silWindow <= minSilence {
		return
	}
	p.correctStreak++
	if p.correctStreak >= decayPeriod {
		p.correctStreak = 0
		p.silWindow /= 2
		if p.silWindow < minSilence {
			p.silWindow = minSilence
		}
	}
}

// Silenced reports whether predictions must not be used at the given
// cycle. Training continues regardless.
func (p *Predictor) Silenced(now uint64) bool { return now < p.silenceUntil }

// EverSilenced reports whether Silence has ever run on this predictor.
func (p *Predictor) EverSilenced() bool { return p.everSilenced }

// PredBits returns the per-entry prediction width for the targeting mode
// (§3.3: 64, 9 or 1).
func (p *Predictor) PredBits() int {
	switch p.cfg.Mode {
	case config.MVP:
		return 1
	case config.TVP:
		return 9
	default:
		return 64
	}
}

// StorageBits returns the predictor storage in bits: every entry stores a
// prediction and an FPC confidence counter; tagged entries additionally
// store a useful field; and each table pays its configured tag width
// (including the base table's short tag, matching the paper's 55.2 / 13.9
// / 7.9 KB sizing for GVP / TVP / MVP).
func (p *Predictor) StorageBits() int {
	pred := p.PredBits()
	bits := len(p.base) * (pred + int(p.cfg.FPCBits) + int(p.cfg.TagBits[0]))
	for i := range p.tables {
		per := pred + int(p.cfg.FPCBits) + int(p.cfg.UsefulBits) + int(p.cfg.TagBits[i+1])
		bits += len(p.tables[i]) * per
	}
	return bits
}

// StorageKB returns the storage footprint in kibibytes.
func (p *Predictor) StorageKB() float64 { return float64(p.StorageBits()) / 8 / 1024 }
