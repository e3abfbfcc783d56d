package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Summary carries the headline derived metrics of a run, precomputed so
// consumers can rank or plot records without reimplementing the ratio
// math of internal/stats.
type Summary struct {
	IPC         float64 `json:"ipc"`
	UopsPerInst float64 `json:"uops_per_inst"`
	BranchMPKI  float64 `json:"branch_mpki"`
	L1DMPKI     float64 `json:"l1d_mpki"`
	VPCoverage  float64 `json:"vp_coverage"`
	VPAccuracy  float64 `json:"vp_accuracy"`
	ElimPct     float64 `json:"elim_pct"`
	SpSRPct     float64 `json:"spsr_pct"`
}

// Summarize derives a Summary from a counter block.
func Summarize(st *stats.Sim) Summary {
	return Summary{
		IPC:         st.IPC(),
		UopsPerInst: st.UopsPerInst(),
		BranchMPKI:  st.BranchMPKI(),
		L1DMPKI:     st.L1DMPKI(),
		VPCoverage:  st.VPCoverage(),
		VPAccuracy:  st.VPAccuracy(),
		ElimPct:     100 * st.ElimFraction(st.ZeroIdiomElim+st.OneIdiomElim+st.MoveElim+st.NineBitElim),
		SpSRPct:     100 * st.ElimFraction(st.SpSRElim),
	}
}

// Attribution holds the per-PC tables of a run, each limited to the
// configured top K out of TableCap tracked PCs.
type Attribution struct {
	TopK              int       `json:"top_k"`
	TableCap          int       `json:"table_cap"`
	VPFlushes         []PCCount `json:"vp_flushes"`
	BranchMispredicts []PCCount `json:"branch_mispredicts"`
	L1DMisses         []PCCount `json:"l1d_misses"`
	// CommitStalls attributes idle commit slots to the instruction that
	// blocked the ROB head (weighted by slots, not occurrences; schema
	// v2, empty on v1 records).
	CommitStalls []PCCount `json:"commit_stalls,omitempty"`
}

// RunMeta names one simulation point for record assembly.
type RunMeta struct {
	Workload string
	// Cfg is the machine the point ran on; its fingerprint, VP mode and
	// SpSR setting are embedded in the record.
	Cfg           *config.Machine
	Warmup, Insts uint64
}

// RunRecord is the versioned machine-readable result of one simulation
// point: full counters, configuration identity, and — when the run was
// executed with telemetry attached — the interval time series and the
// per-PC attribution tables.
type RunRecord struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	ConfigFP string `json:"config_fp"`
	VPMode   string `json:"vp_mode"`
	SpSR     bool   `json:"spsr"`
	Warmup   uint64 `json:"warmup"`
	Insts    uint64 `json:"insts"`
	// Cached marks a tvpreport sweep point recalled from the run
	// memoization cache at least once (SweepLog.Add).
	Cached bool `json:"cached,omitempty"`

	Summary Summary   `json:"summary"`
	Totals  stats.Sim `json:"totals"`
	// CPI is the top-down commit-slot attribution (schema v2; zero on
	// decoded v1 records and on runs without CPI accounting). Invariant:
	// CPI.Total() == Totals.Cycles × CommitWidth when present.
	CPI stats.CPIStack `json:"cpi"`

	// IntervalInsts is the sampling period of Intervals (0 when the run
	// carried no interval sampling, e.g. memoized tvpreport points).
	IntervalInsts uint64       `json:"interval_insts,omitempty"`
	Intervals     []Sample     `json:"intervals,omitempty"`
	Attribution   *Attribution `json:"attribution,omitempty"`
}

// NewRunRecord builds a totals-only record (no intervals/attribution) —
// the shape tvpreport emits for sweep points. Telemetry.Record builds the
// fully instrumented shape.
func NewRunRecord(meta RunMeta, totals stats.Sim) *RunRecord {
	rec := &RunRecord{
		Schema:   RunSchema,
		Workload: meta.Workload,
		Warmup:   meta.Warmup,
		Insts:    meta.Insts,
		Summary:  Summarize(&totals),
		Totals:   totals,
	}
	if meta.Cfg != nil {
		rec.ConfigFP = meta.Cfg.Fingerprint()
		rec.VPMode = meta.Cfg.VP.Mode.String()
		rec.SpSR = meta.Cfg.SpSR
	}
	return rec
}

// SweepRecord summarizes one tvpreport sweep: how many runs the figures
// requested, how many the memoization layer absorbed, and the realized
// simulation throughput. It folds the -cachestats counters into the
// machine-readable output.
type SweepRecord struct {
	Schema        string  `json:"schema"`
	Warmup        uint64  `json:"warmup"`
	Insts         uint64  `json:"insts"`
	Runs          int     `json:"runs"`
	CachedRuns    int     `json:"cached_runs"`
	UniquePoints  int     `json:"unique_points"`
	SimcacheHits  uint64  `json:"simcache_hits"`
	SimcacheMiss  uint64  `json:"simcache_misses"`
	SimInsts      uint64  `json:"simulated_insts"`
	WallSeconds   float64 `json:"wall_seconds"`
	SimulatedMIPS float64 `json:"simulated_mips"`
}

// SweepLog observes one tvpreport sweep. It keeps one RunRecord per
// unique simulation point, numbered in the order the sweep plans its
// points, and counts runs, recalls and simulated instructions for the
// SweepRecord; once Progress turns it on, it also prints a throttled
// progress line from the same counts (heartbeat.go). It is
// concurrency-safe: the sweep's workers all report into one log.
type SweepLog struct {
	mu       sync.Mutex
	start    time.Time
	byKey    map[sweepKey]int // index into records
	records  []*RunRecord     // one per unique point, in plan order
	planned  int
	runs     int
	cached   int
	simInsts uint64
	warmup   uint64
	insts    uint64
	progress progress
}

type sweepKey struct {
	workload string
	fp       string
	warmup   uint64
	insts    uint64
}

// NewSweepLog returns an empty log with its progress line off; the sweep
// wall clock starts now.
func NewSweepLog() *SweepLog {
	//tvplint:ignore nondet sweep wall-clock is host-side throughput metadata (WallSeconds/MIPS), not simulated state
	return &SweepLog{start: time.Now(), byKey: make(map[sweepKey]int)}
}

// AddPlanned registers the runs a sweep is about to make, in the order
// it plans them, and returns each run's slot for Add. A point planned
// before keeps its first slot, so records number in plan order however
// the runs finish; each planned run's configuration fingerprint is
// computed here, once.
func (l *SweepLog) AddPlanned(metas []RunMeta) []int {
	slots := make([]int, len(metas))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.planned += len(metas)
	for i, meta := range metas {
		rec := NewRunRecord(meta, stats.Sim{})
		key := sweepKey{workload: rec.Workload, fp: rec.ConfigFP, warmup: rec.Warmup, insts: rec.Insts}
		slot, ok := l.byKey[key]
		if !ok {
			slot = len(l.records)
			l.byKey[key] = slot
			l.records = append(l.records, rec)
		}
		slots[i] = slot
	}
	return slots
}

// Add records one finished run of the point in slot (AddPlanned) and
// fills the point's record from it; every run of one point gives the
// same result. A recall (cached) marks the record cached and adds no
// simulated instructions; points repeated across figures update the run
// counters but keep their single record.
func (l *SweepLog) Add(slot int, cached bool, r *pipeline.Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.records[slot]
	rec.Summary, rec.Totals, rec.CPI = Summarize(&r.Stats), r.Stats, r.CPI
	l.runs++
	l.warmup, l.insts = rec.Warmup, rec.Insts
	if cached {
		l.cached++
		rec.Cached = true
	} else {
		l.simInsts += rec.Warmup + rec.Insts
	}
	l.beat(cached, r)
}

// Records returns one record per planned point, in plan order; a
// point's record holds its result once a run of it has finished.
func (l *SweepLog) Records() []*RunRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*RunRecord(nil), l.records...)
}

// Sweep assembles the sweep summary, folding in the simcache counters.
func (l *SweepLog) Sweep(cacheHits, cacheMisses uint64) SweepRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	//tvplint:ignore nondet sweep wall-clock is host-side throughput metadata (WallSeconds/MIPS), not simulated state
	wall := time.Since(l.start).Seconds()
	rec := SweepRecord{
		Schema:       SweepSchema,
		Warmup:       l.warmup,
		Insts:        l.insts,
		Runs:         l.runs,
		CachedRuns:   l.cached,
		UniquePoints: len(l.records),
		SimcacheHits: cacheHits,
		SimcacheMiss: cacheMisses,
		SimInsts:     l.simInsts,
		WallSeconds:  wall,
	}
	if wall > 0 {
		rec.SimulatedMIPS = float64(l.simInsts) / wall / 1e6
	}
	return rec
}

// WriteDir writes one JSON file per run record plus sweep.json into dir
// (created if absent). File names are ordinal_workload_fp12.json so a
// directory listing reads in plan order, the same at any worker count,
// and points stay distinguishable across configurations.
func (l *SweepLog) WriteDir(dir string, cacheHits, cacheMisses uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, rec := range l.Records() {
		fp := rec.ConfigFP
		if len(fp) > 12 {
			fp = fp[:12]
		}
		name := fmt.Sprintf("%03d_%s_%s.json", i, rec.Workload, fp)
		if err := writeJSONFile(filepath.Join(dir, name), rec); err != nil {
			return err
		}
	}
	return writeJSONFile(filepath.Join(dir, "sweep.json"), l.Sweep(cacheHits, cacheMisses))
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
