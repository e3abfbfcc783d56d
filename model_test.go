package tvp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workload"
)

var updateGrid = flag.Bool("update", false, "rewrite "+modelGridFile+" (refused while report.ModelVersion is unchanged and a digest moved)")

const modelGridFile = "testdata/model_grid.json"

// modelGrid is the committed digest of every suite member × VP flavor ×
// SpSR at one short run length, recorded under one timing-model version.
type modelGrid struct {
	Model   int               `json:"model"`
	Warmup  uint64            `json:"warmup"`
	Insts   uint64            `json:"insts"`
	Digests map[string]string `json:"digests"`
}

// gridDigests runs every grid point through report.Execute and digests
// its stats and CPI stack (the first 8 bytes of the SHA-256 of their
// JSON), keyed workload/vp/spsr.
func gridDigests(t *testing.T, warmup, insts uint64) map[string]string {
	type cell struct {
		id string
		p  report.Point
	}
	var cells []cell
	for _, w := range workload.Names() {
		for _, vp := range []string{"off", "mvp", "tvp", "gvp"} {
			mode, err := config.ParseVPMode(vp)
			if err != nil {
				t.Fatal(err)
			}
			for _, spsr := range []bool{false, true} {
				cfg := config.Default().WithVP(mode).WithSpSR(spsr)
				cells = append(cells, cell{
					id: fmt.Sprintf("%s/%s/spsr=%t", w, vp, spsr),
					p:  report.Point{Workload: w, Cfg: cfg, Warmup: warmup, Insts: insts},
				})
			}
		}
	}
	digests := make([]string, len(cells))
	errs := make([]error, len(cells))
	report.Each(0, len(cells), func(i int) {
		r, err := report.Execute(context.Background(), cells[i].p, report.Attach{})
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", cells[i].id, err)
			return
		}
		b, err := json.Marshal(struct {
			Stats stats.Sim
			CPI   stats.CPIStack
		}{r.Stats, r.CPI})
		if err != nil {
			errs[i] = err
			return
		}
		sum := sha256.Sum256(b)
		digests[i] = hex.EncodeToString(sum[:8])
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(cells))
	for i, c := range cells {
		out[c.id] = digests[i]
	}
	return out
}

// TestModelGrid is the timing-model tripwire behind report.ModelVersion,
// which every run key (and so every persistent store record) carries. Any
// change to a simulated result changes a digest here; the change must
// bump report.ModelVersion and regenerate the grid with -update, so that
// stores written by the old model read as misses. -update refuses to
// record moved digests under an unchanged ModelVersion.
func TestModelGrid(t *testing.T) {
	got := modelGrid{Model: report.ModelVersion, Warmup: 1000, Insts: 20000}
	got.Digests = gridDigests(t, got.Warmup, got.Insts)

	var want modelGrid
	data, err := os.ReadFile(modelGridFile)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil && !(*updateGrid && errors.Is(err, os.ErrNotExist)) {
		t.Fatalf("%s: %v", modelGridFile, err)
	}

	// Digests compare only at equal run lengths: a new length is a new
	// grid, not a moved result.
	var moved []string
	for id, d := range got.Digests {
		if w, ok := want.Digests[id]; ok && w != d && want.Warmup == got.Warmup && want.Insts == got.Insts {
			moved = append(moved, fmt.Sprintf("%s: digest %s, grid %s", id, d, w))
		}
	}
	sort.Strings(moved)

	if *updateGrid {
		if want.Model == report.ModelVersion && len(moved) > 0 {
			t.Fatalf("refusing to rewrite %s: %d digests moved under unchanged report.ModelVersion %d; bump it first:\n%s",
				modelGridFile, len(moved), report.ModelVersion, moved[0])
		}
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(modelGridFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	if want.Model != report.ModelVersion {
		t.Fatalf("%s records model %d, report.ModelVersion is %d: run with -update", modelGridFile, want.Model, report.ModelVersion)
	}
	if want.Warmup != got.Warmup || want.Insts != got.Insts {
		t.Fatalf("%s is at %d+%d instructions, the test at %d+%d: run with -update", modelGridFile, want.Warmup, want.Insts, got.Warmup, got.Insts)
	}
	for _, m := range moved {
		t.Error(m)
	}
	if len(moved) > 0 {
		t.Errorf("%d of %d digests moved: bump report.ModelVersion, then run with -update", len(moved), len(got.Digests))
	}
	for id := range got.Digests {
		if _, ok := want.Digests[id]; !ok {
			t.Errorf("%s: not in %s: run with -update", id, modelGridFile)
		}
	}
	for id := range want.Digests {
		if _, ok := got.Digests[id]; !ok {
			t.Errorf("%s: in %s but no longer a grid point: run with -update", id, modelGridFile)
		}
	}
}

// TestSilencingInsensitivity is the oracle behind report's silencing-base
// sharing (DESIGN §6): a run whose value predictor is never silenced
// reads no silencing setting, so every suite member × VP flavor gives
// bit-identical results under the default silencing, 15 and 1000 cycles,
// dynamic silencing and a window longer than the run whenever the
// default run is unsilenced; and the runs of a group agree on whether
// they were silenced. No suite member uses a prediction within its first
// 1000 cycles, so only the long window exposes a read of SilenceCycles
// before the first Silence call. Both branches must run: the test fails
// unless some groups silence and some do not.
func TestSilencingInsensitivity(t *testing.T) {
	const warmup, insts = 1000, 20000
	variants := []func(*config.VPConfig){
		func(*config.VPConfig) {},
		func(v *config.VPConfig) { v.SilenceCycles = 15 },
		func(v *config.VPConfig) { v.SilenceCycles = 1000 },
		func(v *config.VPConfig) { v.DynamicSilence = true },
		func(v *config.VPConfig) { v.SilenceCycles = 1 << 20 },
	}
	var ids []string
	var pts []report.Point
	for _, w := range workload.Names() {
		for _, vp := range []string{"mvp", "tvp", "gvp"} {
			mode, err := config.ParseVPMode(vp)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, w+"/"+vp)
			for _, set := range variants {
				cfg := config.Default().WithVP(mode)
				set(&cfg.VP)
				pts = append(pts, report.Point{Workload: w, Cfg: cfg, Warmup: warmup, Insts: insts})
			}
		}
	}
	rs := make([]report.Result, len(pts))
	errs := make([]error, len(pts))
	report.Each(0, len(pts), func(i int) {
		rs[i], errs[i] = report.Execute(context.Background(), pts[i], report.Attach{})
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	silenced := 0
	for g, id := range ids {
		group := rs[g*len(variants) : (g+1)*len(variants)]
		for k, r := range group[1:] {
			if r.Silenced != group[0].Silenced {
				t.Errorf("%s: variant %d silenced=%t, default silenced=%t", id, k+1, r.Silenced, group[0].Silenced)
			}
		}
		if group[0].Silenced {
			silenced++
			continue
		}
		for k, r := range group[1:] {
			if d := group[0]; r != d {
				t.Errorf("%s: unsilenced, but variant %d differs from the default: %d cycles, %d used and %d silenced predictions; default %d, %d and %d",
					id, k+1, r.Cycles, r.Stats.VPCorrectUsed, r.Stats.VPSilenced, d.Cycles, d.Stats.VPCorrectUsed, d.Stats.VPSilenced)
			}
		}
	}
	t.Logf("%d of %d groups silenced", silenced, len(ids))
	if silenced == 0 || silenced == len(ids) {
		t.Fatalf("%d of %d groups silenced: both branches must run", silenced, len(ids))
	}
}
