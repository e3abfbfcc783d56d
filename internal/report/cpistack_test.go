package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestCPIStacks checks the "where do the cycles go" experiment end to
// end: the acceptance property that buckets actually move between base
// and TVP+SpSR (bad-speculation-VP and SpSR credit appear only on the
// TVP side), plus a golden render so the table format is pinned in
// `make check`. The simulator is deterministic, so the golden is stable;
// regenerate with `go test ./internal/report -run CPIStacks -update`.
func TestCPIStacks(t *testing.T) {
	c := tiny()
	// xz_1 is the sample's value-mispredicting workload (bad-vp slots at
	// Quick lengths); mcf covers the backend-memory bucket.
	c.Workloads = []string{"657_xz_s_1", "605_mcf_s"}
	rows, err := CPIStacks(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}

	var baseVP, tvpVP, baseSpSR, tvpSpSR, tvpTotal uint64
	for _, r := range rows {
		if r.Base.Total() == 0 || r.TVP.Total() == 0 {
			t.Fatalf("%s: empty stack (base %d, tvp %d slots)", r.Workload, r.Base.Total(), r.TVP.Total())
		}
		baseVP += r.Base.BadSpecVP
		tvpVP += r.TVP.BadSpecVP
		baseSpSR += r.Base.RetiredSpSR
		tvpSpSR += r.TVP.RetiredSpSR
		tvpTotal += r.TVP.Total()
	}
	if baseVP != 0 || baseSpSR != 0 {
		t.Errorf("baseline charged VP-only buckets: bad-vp %d, spsr %d", baseVP, baseSpSR)
	}
	if tvpVP == 0 {
		t.Error("TVP+SpSR never charged bad-speculation-VP")
	}
	if tvpSpSR == 0 {
		t.Error("TVP+SpSR never credited SpSR-eliminated slots")
	}

	var buf bytes.Buffer
	WriteCPIStacks(&buf, rows)
	golden := filepath.Join("testdata", "cpistack.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if buf.String() != string(want) {
		t.Errorf("rendered CPI stack differs from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestCPICacheEquivalence: the CPI run memoization must be sound — a
// recalled sweep is bit-identical to an uncached one.
func TestCPICacheEquivalence(t *testing.T) {
	c := tiny()
	c.Workloads = []string{"623_xalancbmk_s"}
	ResetCPICache()
	rows1, err := CPIStacks(c)
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := CPIStacks(c) // served from the run cache
	if err != nil {
		t.Fatal(err)
	}
	un := c
	un.NoCache = true
	rows3, err := CPIStacks(un)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows1 {
		if rows1[i] != rows2[i] || rows1[i] != rows3[i] {
			t.Errorf("row %d differs across cached/recached/uncached:\n%+v\n%+v\n%+v",
				i, rows1[i], rows2[i], rows3[i])
		}
	}
}

// TestCPIStacksReuseRunCache: the CPI stacks are the runs Fig. 2 (base)
// and Fig. 4b (TVP+SpSR) already put in the run cache — CPIStacks adds
// no miss — and they equal an uncached CPIStacks row for row.
func TestCPIStacksReuseRunCache(t *testing.T) {
	c := tiny()
	ResetRunCache()
	if _, _, _, err := Fig2(c); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Fig4(c, config.TVP); err != nil {
		t.Fatal(err)
	}
	_, m0 := RunCacheCounters()
	rows, err := CPIStacks(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, m1 := RunCacheCounters(); m1 != m0 {
		t.Errorf("CPIStacks added %d run-cache misses after Fig2 and Fig4b, want 0", m1-m0)
	}
	un := c
	un.NoCache = true
	want, err := CPIStacks(un)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d: cached %+v, uncached %+v", i, rows[i], want[i])
		}
	}
}

// TestCPIStacksParallelismInvariance: CPI sweeps render byte-identically
// from -j 1 to a wide pool (same guarantee runAll gives the figures).
func TestCPIStacksParallelismInvariance(t *testing.T) {
	render := func(workers int) string {
		c := tiny()
		c.Workloads = []string{"600_perlbench_s_1", "605_mcf_s"}
		c.NoCache = true
		c.Workers = workers
		rows, err := CPIStacks(c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		WriteCPIStacks(&buf, rows)
		return buf.String()
	}
	if serial, parallel := render(1), render(8); serial != parallel {
		t.Errorf("CPI sweep differs between -j 1 and -j 8:\n%s\nvs\n%s", serial, parallel)
	}
}
