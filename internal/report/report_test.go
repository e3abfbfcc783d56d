package report

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
)

// tiny restricts experiments to a 3-benchmark sample at short length so
// the whole report layer is exercised in seconds.
func tiny() Config {
	c := Quick()
	c.Workloads = []string{"600_perlbench_s_1", "623_xalancbmk_s", "654_roms_s"}
	return c
}

func TestFig1(t *testing.T) {
	c := tiny()
	c.Insts = 30000
	vs, err := Fig1(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("no values collected")
	}
	if vs[0].Value != 0 {
		t.Errorf("most frequent value = %#x, Fig. 1 wants 0x0", vs[0].Value)
	}
	for i := 1; i < len(vs); i++ {
		if vs[i].Percent > vs[i-1].Percent {
			t.Fatal("values not sorted by frequency")
		}
	}
	var buf bytes.Buffer
	WriteFig1(&buf, vs)
	if !strings.Contains(buf.String(), "0x0") {
		t.Error("rendering missing 0x0 row")
	}
}

func TestFig2(t *testing.T) {
	rows, mu, hi, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if mu < 1 || hi <= 0 {
		t.Errorf("means implausible: uops %.3f, IPC %.3f", mu, hi)
	}
	var buf bytes.Buffer
	WriteFig2(&buf, rows, mu, hi)
	if !strings.Contains(buf.String(), "xalancbmk") {
		t.Error("rendering missing workload")
	}
}

func TestFig3(t *testing.T) {
	rows, sum, err := Fig3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Ordering invariant on this sample: GVP geomean >= MVP geomean.
	if sum.GeomeanSpeedup[2] < sum.GeomeanSpeedup[0]-0.5 {
		t.Errorf("GVP %.2f should dominate MVP %.2f", sum.GeomeanSpeedup[2], sum.GeomeanSpeedup[0])
	}
	if sum.MeanCoverage[0] > sum.MeanCoverage[2] {
		t.Error("MVP coverage cannot exceed GVP coverage")
	}
	for _, r := range rows {
		for m := 0; m < 3; m++ {
			if r.Accuracy[m] < 99 {
				t.Errorf("%s accuracy[%d] = %.2f%%; FPC confidence should keep it ≈100%%", r.Workload, m, r.Accuracy[m])
			}
		}
	}
	var buf bytes.Buffer
	WriteFig3(&buf, rows, sum)
	if !strings.Contains(buf.String(), "geomean") {
		t.Error("rendering missing summary")
	}
}

func TestFig4(t *testing.T) {
	rows, mean, err := Fig4(tiny(), config.TVP)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("rows")
	}
	if mean.SpSR <= 0 {
		t.Error("TVP+SpSR must eliminate some instructions")
	}
	if mean.Move <= 0 || mean.ZeroIdiom <= 0 {
		t.Error("baseline DSR categories empty")
	}
	// MVP variant has no 9-bit idiom elimination.
	_, meanMVP, err := Fig4(tiny(), config.MVP)
	if err != nil {
		t.Fatal(err)
	}
	if meanMVP.NineBit != 0 {
		t.Errorf("MVP cannot 9-bit-eliminate (got %.3f%%)", meanMVP.NineBit)
	}
	var buf bytes.Buffer
	WriteFig4(&buf, "Fig 4 test", rows, mean)
	if !strings.Contains(buf.String(), "SpSR") {
		t.Error("rendering missing SpSR column")
	}
}

func TestFig5(t *testing.T) {
	rows, geo, err := Fig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("rows")
	}
	// SpSR must not change speedups catastrophically (paper: ±small).
	for k := 0; k < 4; k++ {
		if geo[k] < -20 || geo[k] > 80 {
			t.Errorf("geo[%d] = %.2f implausible", k, geo[k])
		}
	}
	var buf bytes.Buffer
	WriteFig5(&buf, rows, geo)
	if !strings.Contains(buf.String(), "SpSR") {
		t.Error("rendering")
	}
}

func TestFig6(t *testing.T) {
	rows, err := Fig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 configurations", len(rows))
	}
	for _, r := range rows {
		if r.IntPRFReads > 105 {
			t.Errorf("%s: PRF reads %.1f%% — VP flavors must reduce PRF read traffic", r.Config, r.IntPRFReads)
		}
	}
	// SpSR reduces IQ dispatch relative to its plain-VP sibling.
	if rows[1].IQAdded >= rows[0].IQAdded {
		t.Errorf("MVP+SpSR IQAdded %.2f not below MVP %.2f", rows[1].IQAdded, rows[0].IQAdded)
	}
	if rows[3].IQAdded >= rows[2].IQAdded {
		t.Errorf("TVP+SpSR IQAdded %.2f not below TVP %.2f", rows[3].IQAdded, rows[2].IQAdded)
	}
	var buf bytes.Buffer
	WriteFig6(&buf, rows)
	if !strings.Contains(buf.String(), "INTPRFWrites") {
		t.Error("rendering")
	}
}

func TestTable1AllRowsReduce(t *testing.T) {
	cases := Table1()
	if len(cases) < 25 {
		t.Fatalf("Table 1 demonstrates only %d idioms", len(cases))
	}
	for _, c := range cases {
		if c.Reduction == "none" || c.Reduction == "" {
			t.Errorf("%s [%s] did not reduce", c.Instruction, c.Operand)
		}
	}
}

func TestStorageModel(t *testing.T) {
	m := config.Default()
	for _, tc := range []struct {
		mode config.VPMode
		want float64
	}{
		{config.GVP, 55.2}, {config.TVP, 13.9}, {config.MVP, 7.9},
	} {
		got := StorageKB(m, tc.mode)
		if got < tc.want-0.2 || got > tc.want+0.2 {
			t.Errorf("%v storage %.2f KB, want ≈ %.1f", tc.mode, got, tc.want)
		}
	}
}

func TestAblationSilencing(t *testing.T) {
	c := tiny()
	c.Workloads = []string{"600_perlbench_s_1"}
	rows, err := AblationSilencing(c, []int{15, 250})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("rows")
	}
	var buf bytes.Buffer
	WriteSilencing(&buf, rows)
	if !strings.Contains(buf.String(), "250") {
		t.Error("rendering")
	}
}

func TestAblationPrefetch(t *testing.T) {
	c := tiny()
	c.Workloads = []string{"654_roms_s"}
	rows, err := AblationPrefetch(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatal("rows")
	}
	var buf bytes.Buffer
	WritePrefetch(&buf, rows)
	if !strings.Contains(buf.String(), "roms") {
		t.Error("rendering")
	}
}

// TestCacheEquivalence is the memoization soundness check: a cached sweep
// must produce bit-identical results to one that re-simulates every
// point. Fig3 is used because it shares baseline runs across workloads
// and flavors, so hits actually occur.
func TestCacheEquivalence(t *testing.T) {
	c := tiny()
	c.Workloads = []string{"600_perlbench_s_1", "623_xalancbmk_s"}

	ResetRunCache()
	rows1, sum1, err := Fig3(c)
	if err != nil {
		t.Fatal(err)
	}
	// Second pass is served from cache (same process-wide cache).
	h0, _ := RunCacheCounters()
	rows2, sum2, err := Fig3(c)
	if err != nil {
		t.Fatal(err)
	}
	if h1, _ := RunCacheCounters(); h1 <= h0 {
		t.Fatalf("second Fig3 pass produced no cache hits (%d -> %d)", h0, h1)
	}

	uncached := c
	uncached.NoCache = true
	rows3, sum3, err := Fig3(uncached)
	if err != nil {
		t.Fatal(err)
	}

	for i := range rows1 {
		if rows1[i] != rows2[i] || rows1[i] != rows3[i] {
			t.Errorf("row %d differs across cached/recached/uncached:\n%+v\n%+v\n%+v",
				i, rows1[i], rows2[i], rows3[i])
		}
	}
	if sum1 != sum2 || sum1 != sum3 {
		t.Errorf("summaries differ: %+v / %+v / %+v", sum1, sum2, sum3)
	}
}

// TestSilencingShareEquivalence is TestCacheEquivalence for the
// silencing ablations, whose variants the cache answers from their
// silencing base when the base never silenced: cached, recached and
// NoCache results must be identical, over one member that silences at
// this length (602_gcc_s_3, under MVP) and one that never does.
func TestSilencingShareEquivalence(t *testing.T) {
	type ablations struct {
		rows           []SilencingRow
		fixed, dynamic [3]float64
		recs           []*obs.RunRecord
	}
	run := func(c Config) ablations {
		var a ablations
		var err error
		c.Obs = obs.NewSweepLog()
		if a.rows, err = AblationSilencing(c, []int{15, 250, 1000}); err != nil {
			t.Fatal(err)
		}
		if a.fixed, a.dynamic, err = AblationDynamicSilence(c); err != nil {
			t.Fatal(err)
		}
		a.recs = c.Obs.Records()
		return a
	}
	c := tiny()
	c.Workloads = []string{"602_gcc_s_3", "600_perlbench_s_1"}
	ResetRunCache()
	cached := run(c)
	recached := run(c)
	uncached := c
	uncached.NoCache = true
	passes := []ablations{cached, recached, run(uncached)}

	// Records arrive in completion order: match them by point.
	want := make(map[string]*obs.RunRecord)
	for _, r := range cached.recs {
		want[r.Workload+"/"+r.ConfigFP] = r
	}
	for i, a := range passes[1:] {
		if !reflect.DeepEqual(a.rows, cached.rows) || a.fixed != cached.fixed || a.dynamic != cached.dynamic {
			t.Errorf("pass %d differs from the cached pass:\n%+v %v %v\n%+v %v %v",
				i+1, a.rows, a.fixed, a.dynamic, cached.rows, cached.fixed, cached.dynamic)
		}
		if len(a.recs) != len(want) {
			t.Errorf("pass %d logged %d points, the cached pass %d", i+1, len(a.recs), len(want))
		}
		for _, r := range a.recs {
			if w := want[r.Workload+"/"+r.ConfigFP]; w == nil || r.Totals != w.Totals || r.CPI != w.CPI {
				t.Errorf("pass %d: %s %s: totals or CPI differ from the cached pass", i+1, r.Workload, r.VPMode)
			}
		}
	}

	// Both branches ran: the cached pass shared some variants and
	// simulated the silenced ones, while NoCache simulated every point.
	// Each variant is requested once per pass, so a cached variant
	// record is a shared answer.
	bases := map[string]bool{}
	for _, m := range []config.VPMode{config.VPOff, config.MVP, config.TVP, config.GVP} {
		bases[config.Default().WithVP(m).Fingerprint()] = true
	}
	shared, own := 0, 0
	for _, r := range cached.recs {
		switch {
		case bases[r.ConfigFP]:
		case r.Cached:
			shared++
		case r.Workload == "602_gcc_s_3" && r.VPMode == config.MVP.String():
			own++
		}
	}
	t.Logf("cached pass: %d variants shared, %d MVP variants of 602_gcc_s_3 simulated", shared, own)
	if shared == 0 || own < 3 {
		t.Errorf("cached pass shared %d variants and simulated %d MVP points of 602_gcc_s_3; want both branches", shared, own)
	}
	for _, r := range passes[2].recs {
		if r.Cached {
			t.Errorf("NoCache recalled %s %s", r.Workload, r.VPMode)
		}
	}
}

func TestUnknownWorkloadError(t *testing.T) {
	c := tiny()
	c.Workloads = []string{"600_perlbench_s_1", "no_such_workload"}
	_, _, _, err := Fig2(c)
	if err == nil {
		t.Fatal("Fig2 accepted an unknown workload")
	}
	if !strings.Contains(err.Error(), "no_such_workload") {
		t.Errorf("error does not name the failing workload: %v", err)
	}
	if _, err := Fig1(c, 5); err == nil {
		t.Fatal("Fig1 swallowed the unknown-workload error")
	}
}

func TestTable3Smoke(t *testing.T) {
	c := tiny()
	c.Workloads = []string{"623_xalancbmk_s"}
	rows, err := Table3(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatal("rows")
	}
	for _, r := range rows {
		if !(r.StorageKB[0] < r.StorageKB[1] && r.StorageKB[1] < r.StorageKB[2]) {
			t.Errorf("storage ordering wrong at scale %s: %v", r.Label, r.StorageKB)
		}
	}
	var buf bytes.Buffer
	WriteTable3(&buf, rows)
	if !strings.Contains(buf.String(), "Table 3") {
		t.Error("rendering")
	}
}

// TestSweepParallelismInvariance: the sweep worker pool (Config.Workers,
// tvpreport -j) must not change results — rendered output is byte-equal
// between a serial sweep (-j 1) and a wide pool, with the memoization
// cache bypassed so every point actually simulates on the pool.
func TestSweepParallelismInvariance(t *testing.T) {
	render := func(workers int) string {
		c := tiny()
		c.Insts = 30000
		c.NoCache = true
		c.Workers = workers
		var buf bytes.Buffer
		rows, sum, err := Fig3(c)
		if err != nil {
			t.Fatal(err)
		}
		WriteFig3(&buf, rows, sum)
		rows5, geo, err := Fig5(c)
		if err != nil {
			t.Fatal(err)
		}
		WriteFig5(&buf, rows5, geo)
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("sweep output differs between -j 1 and -j 8:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestWorkersDefault: Workers<=0 falls back to NumCPU and explicit
// bounds are honored (exposed to callers via EffectiveWorkers).
func TestWorkersDefault(t *testing.T) {
	if got := (Config{}).workers(); got != runtime.NumCPU() {
		t.Errorf("workers() = %d, want NumCPU = %d", got, runtime.NumCPU())
	}
	if got := (Config{Workers: -1}).EffectiveWorkers(); got != runtime.NumCPU() {
		t.Errorf("EffectiveWorkers(-1) = %d, want NumCPU = %d", got, runtime.NumCPU())
	}
	if got := (Config{Workers: 3}).EffectiveWorkers(); got != 3 {
		t.Errorf("EffectiveWorkers() = %d, want 3", got)
	}
}

// TestPaperAggregateFilter: promoted 9xx members print as rows but stay
// out of the paper-figure aggregates, and a promoted-only list falls
// back to aggregating everything rather than averaging zero points.
func TestPaperAggregateFilter(t *testing.T) {
	mixed := []string{"600_perlbench_s_1", "901_fuzz_dispatch_s", "654_roms_s"}
	if got := paperSubset(mixed); len(got) != 2 || got[0] != "600_perlbench_s_1" || got[1] != "654_roms_s" {
		t.Fatalf("paperSubset(%v) = %v", mixed, got)
	}
	only9 := []string{"901_fuzz_dispatch_s"}
	if got := paperSubset(only9); len(got) != 1 || got[0] != "901_fuzz_dispatch_s" {
		t.Fatalf("paperSubset must back off on a promoted-only list, got %v", got)
	}

	// Fig. 2 over the mixed list must report the same means as over the
	// paper members alone, while still carrying the promoted row.
	c := Quick()
	c.Workloads = []string{"600_perlbench_s_1", "654_roms_s"}
	_, mu, hi, err := Fig2(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Workloads = mixed
	rows, mu2, hi2, err := Fig2(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[1].Workload != "901_fuzz_dispatch_s" {
		t.Fatalf("promoted member missing from rows: %+v", rows)
	}
	if mu2 != mu || hi2 != hi {
		t.Errorf("aggregates moved when a promoted member joined the list: uops %.6f vs %.6f, IPC %.6f vs %.6f", mu2, mu, hi2, hi)
	}
}
