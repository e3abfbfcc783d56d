package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/workload"
)

// cpiConfigs are the machine variants the exact-decomposition invariant
// runs under (the same axes as skipConfigs, without the shadow oracle —
// crosscheck correctness is skip_test.go's job and doubling runtime here
// buys nothing).
func cpiConfigs() map[string]*config.Machine {
	base := config.Default()
	tvp := base.Clone()
	tvp.VP.Mode = config.TVP
	tvp.NineBitIdiom = true
	gvp := base.Clone()
	gvp.VP.Mode = config.GVP
	spsr := base.Clone()
	spsr.SpSR = true
	spsr.NineBitIdiom = true
	return map[string]*config.Machine{"base": base, "tvp": tvp, "gvp": gvp, "spsr": spsr}
}

// TestCPIStackExactDecomposition is the tentpole invariant: across the
// whole workload suite × machine variants, every post-warmup commit slot
// lands in exactly one bucket — Σ buckets == Cycles × CommitWidth — and
// the per-bucket counts are bit-identical with cycle skipping enabled and
// disabled (skipped spans credit buckets delta-at-jump; a classification
// that was not span-invariant would diverge here).
func TestCPIStackExactDecomposition(t *testing.T) {
	var agg = map[string]*struct{ badVP, spsr, mem, structural, skipped uint64 }{}
	for cfgName, cfg := range cpiConfigs() {
		a := &struct{ badVP, spsr, mem, structural, skipped uint64 }{}
		agg[cfgName] = a
		for _, name := range workload.Names() {
			spec, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(cfgName+"/"+name, func(t *testing.T) {
				con := New(cfg, spec.Build())
				con.EnableCPIStack()
				ron := con.Run(1000, 20000)

				want := ron.Stats.Cycles * uint64(cfg.CommitWidth)
				if got := ron.CPI.Total(); got != want {
					t.Errorf("skip-on decomposition: Σ buckets = %d, want Cycles×W = %d×%d = %d\n%+v",
						got, ron.Stats.Cycles, cfg.CommitWidth, want, ron.CPI)
				}

				off := cfg.Clone()
				off.DisableCycleSkip = true
				coff := New(off, spec.Build())
				coff.EnableCPIStack()
				roff := coff.Run(1000, 20000)
				if roff.CPI.Total() != roff.Stats.Cycles*uint64(cfg.CommitWidth) {
					t.Errorf("tick-by-tick decomposition: Σ buckets = %d, want %d",
						roff.CPI.Total(), roff.Stats.Cycles*uint64(cfg.CommitWidth))
				}
				if ron.CPI != roff.CPI {
					t.Errorf("CPI stack diverged between skip on/off:\n on: %+v\noff: %+v", ron.CPI, roff.CPI)
				}

				a.badVP += ron.CPI.BadSpecVP
				a.spsr += ron.CPI.RetiredSpSR
				a.mem += ron.CPI.BackendMemory
				a.structural += ron.CPI.Structural
				a.skipped += con.SkippedCycles()
			})
		}
	}
	// Liveness: the buckets the paper's argument hinges on must actually
	// accumulate somewhere in the suite under the configs that exercise
	// them — an always-zero bucket would make the invariant vacuous.
	if agg["tvp"].badVP == 0 {
		t.Error("bad-speculation-VP never charged under TVP across the suite")
	}
	if agg["spsr"].spsr == 0 {
		t.Error("SpSR retirement credit never charged under SpSR across the suite")
	}
	for cfgName, a := range agg {
		if a.mem == 0 {
			t.Errorf("%s: backend-memory never charged across the suite", cfgName)
		}
		if a.structural == 0 {
			t.Errorf("%s: structural never charged across the suite", cfgName)
		}
		if a.skipped == 0 {
			t.Errorf("%s: cycle skipping never engaged; the span-crediting path went untested", cfgName)
		}
	}
}

// TestCPIStackZeroInterference: enabling CPI accounting must not change a
// single stats.Sim counter, cycle or commit count — it is observation
// only. Run with skipping both on and off so both accounting paths are
// shown inert.
func TestCPIStackZeroInterference(t *testing.T) {
	for _, skip := range []bool{true, false} {
		for cfgName, cfg := range cpiConfigs() {
			c := cfg
			if !skip {
				c = cfg.Clone()
				c.DisableCycleSkip = true
			}
			for _, name := range []string{workload.Names()[0], "605_mcf_s"} {
				spec, err := workload.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				bare := New(c, spec.Build()).Run(1000, 15000)
				con := New(c, spec.Build())
				con.EnableCPIStack()
				res := con.Run(1000, 15000)
				if !reflect.DeepEqual(bare.Stats, res.Stats) ||
					bare.Cycles != res.Cycles || bare.Committed != res.Committed {
					t.Errorf("%s/%s skip=%v: run changed with CPI accounting on:\nbare: %+v\n cpi: %+v",
						cfgName, name, skip, bare.Stats, res.Stats)
				}
			}
		}
	}
}

// TestCPIStackOffByDefault: without EnableCPIStack or a Probe the
// accounting never arms and Result.CPI stays zero.
func TestCPIStackOffByDefault(t *testing.T) {
	spec, err := workload.Get(workload.Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	res := New(config.Default(), spec.Build()).Run(1000, 10000)
	if res.CPI != (stats.CPIStack{}) {
		t.Fatalf("CPI stack accumulated without being enabled: %+v", res.CPI)
	}
}
