package obs

import (
	"repro/internal/isa"
	"repro/internal/stats"
)

// Config sizes one run's telemetry.
type Config struct {
	// Interval is the sampling period in committed instructions
	// (0 → DefaultInterval).
	Interval uint64
	// TopK is how many entries each attribution table reports
	// (<= 0 → DefaultTopK).
	TopK int
	// TableCap bounds how many PCs each attribution table tracks
	// (<= 0 → DefaultTableCap).
	TableCap int
}

// Telemetry is the per-run observer: it satisfies pipeline.Probe
// structurally (obs deliberately does not import pipeline here, so the
// pipeline package stays free of any obs dependency) and accumulates the
// interval series plus the three attribution tables. One Telemetry
// observes exactly one run; it is not safe for concurrent use.
type Telemetry struct {
	cfg     Config
	sampler *Sampler
	vpFlush *TopPC
	brMiss  *TopPC
	l1dMiss *TopPC
	// CPI-stack observation (cpistack.go): attaching a Telemetry arms
	// the pipeline's commit-slot accounting.
	commitStall *TopPC
	cpi         stats.CPIStack // latest snapshot (run totals at the tail)
}

// New returns a Telemetry with defaults filled in.
func New(cfg Config) *Telemetry {
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.TopK <= 0 {
		cfg.TopK = DefaultTopK
	}
	if cfg.TableCap <= 0 {
		cfg.TableCap = DefaultTableCap
	}
	return &Telemetry{
		cfg:         cfg,
		sampler:     NewSampler(cfg.Interval),
		vpFlush:     NewTopPC(cfg.TableCap),
		brMiss:      NewTopPC(cfg.TableCap),
		l1dMiss:     NewTopPC(cfg.TableCap),
		commitStall: NewTopPC(cfg.TableCap),
	}
}

// SampleEvery reports the sampling period to the pipeline's Probe seam.
func (t *Telemetry) SampleEvery() uint64 { return t.cfg.Interval }

// Sample consumes one counter snapshot at a sampling boundary.
func (t *Telemetry) Sample(committed, cycle uint64, st *stats.Sim) {
	t.sampler.Observe(committed, cycle, st)
}

// VPFlush attributes one value-misprediction pipeline flush to pc.
func (t *Telemetry) VPFlush(pc uint64, in *isa.Inst) { t.vpFlush.Touch(pc, in) }

// BranchMispredict attributes one control misprediction to pc.
func (t *Telemetry) BranchMispredict(pc uint64, in *isa.Inst) { t.brMiss.Touch(pc, in) }

// L1DMiss attributes one L1D demand miss to the load/store at pc.
func (t *Telemetry) L1DMiss(pc uint64, in *isa.Inst) { t.l1dMiss.Touch(pc, in) }

// Samples exposes the interval series accumulated so far.
func (t *Telemetry) Samples() []Sample { return t.sampler.Samples() }

// Record assembles the fully instrumented RunRecord for the observed run.
func (t *Telemetry) Record(meta RunMeta, totals stats.Sim) *RunRecord {
	rec := NewRunRecord(meta, totals)
	rec.CPI = t.cpi
	rec.IntervalInsts = t.cfg.Interval
	rec.Intervals = t.sampler.Samples()
	rec.Attribution = &Attribution{
		TopK:              t.cfg.TopK,
		TableCap:          t.cfg.TableCap,
		VPFlushes:         t.vpFlush.Top(t.cfg.TopK),
		BranchMispredicts: t.brMiss.Top(t.cfg.TopK),
		L1DMisses:         t.l1dMiss.Top(t.cfg.TopK),
		CommitStalls:      t.commitStall.Top(t.cfg.TopK),
	}
	return rec
}
