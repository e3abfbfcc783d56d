package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// fillSim sets every counter to a distinct nonzero value via reflection,
// so any field dropped by serialization or delta math shows up as a
// mismatch on that specific field. It also guards the assumption the
// telemetry layer makes about stats.Sim: every exported field is a
// uint64 counter.
func fillSim(t *testing.T, offset uint64) stats.Sim {
	t.Helper()
	var st stats.Sim
	v := reflect.ValueOf(&st).Elem()
	ty := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f := ty.Field(i)
		if !f.IsExported() {
			t.Fatalf("stats.Sim has unexported field %s; telemetry serialization would drop it", f.Name)
		}
		if f.Type.Kind() != reflect.Uint64 {
			t.Fatalf("stats.Sim field %s is %s, not uint64; update obs for it", f.Name, f.Type)
		}
		v.Field(i).SetUint(offset + uint64(i) + 1)
	}
	return st
}

// TestRunRecordCountersSurviveJSON is the schema guard: every exported
// stats.Sim counter must survive a RunRecord JSON round-trip unchanged.
func TestRunRecordCountersSurviveJSON(t *testing.T) {
	totals := fillSim(t, 0)
	rec := NewRunRecord(RunMeta{
		Workload: "guard", Cfg: config.Default(), Warmup: 7, Insts: 11,
	}, totals)

	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back RunRecord
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}

	want := reflect.ValueOf(totals)
	got := reflect.ValueOf(back.Totals)
	for i := 0; i < want.NumField(); i++ {
		name := want.Type().Field(i).Name
		if want.Field(i).Uint() != got.Field(i).Uint() {
			t.Errorf("counter %s: %d before JSON, %d after", name, want.Field(i).Uint(), got.Field(i).Uint())
		}
	}
	if back.Schema != RunSchema {
		t.Errorf("schema %q, want %q", back.Schema, RunSchema)
	}
	if back.ConfigFP == "" || back.ConfigFP != config.Default().Fingerprint() {
		t.Errorf("config fingerprint not preserved: %q", back.ConfigFP)
	}
}

// TestSamplerDeltaCoversEveryCounter guards the interval-delta path:
// every counter accumulated between two snapshots must appear in the
// sample's Delta (i.e. stats.Sub covers the whole struct).
func TestSamplerDeltaCoversEveryCounter(t *testing.T) {
	base := fillSim(t, 0)
	end := fillSim(t, 1000)

	s := NewSampler(100)
	s.Observe(0, 0, &base)
	s.Observe(100, 250, &end)
	samples := s.Samples()
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1", len(samples))
	}
	want := stats.Sub(&end, &base)
	wv := reflect.ValueOf(want)
	gv := reflect.ValueOf(samples[0].Delta)
	for i := 0; i < wv.NumField(); i++ {
		name := wv.Type().Field(i).Name
		if wv.Field(i).Uint() != gv.Field(i).Uint() {
			t.Errorf("delta counter %s: want %d, got %d", name, wv.Field(i).Uint(), gv.Field(i).Uint())
		}
		// fillSim guarantees every field moved by exactly 1000.
		if gv.Field(i).Uint() != 1000 {
			t.Errorf("delta counter %s = %d, want 1000 (field missed by Sub?)", name, gv.Field(i).Uint())
		}
	}
}

func TestSweepLogDedupAndCounters(t *testing.T) {
	l := NewSweepLog()
	cfg := config.Default()
	meta := RunMeta{Workload: "w", Cfg: cfg, Warmup: 10, Insts: 100}
	var st stats.Sim
	st.ArchInsts = 100

	l.AddCPI(meta, st, nil) // fresh simulation
	cachedMeta := meta
	cachedMeta.Cached = true
	l.AddCPI(cachedMeta, st, nil) // same point recalled
	other := meta
	other.Workload = "w2"
	l.AddCPI(other, st, nil)

	recs := l.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d unique records, want 2", len(recs))
	}
	if !recs[0].Cached {
		t.Error("first point saw a cache recall; record should be marked cached")
	}
	sw := l.Sweep(5, 2)
	if sw.Runs != 3 || sw.CachedRuns != 1 || sw.UniquePoints != 2 {
		t.Errorf("sweep counters: %+v", sw)
	}
	if sw.SimcacheHits != 5 || sw.SimcacheMiss != 2 {
		t.Errorf("simcache counters not folded in: %+v", sw)
	}
	// Two fresh runs of warmup 10 + insts 100 each.
	if sw.SimInsts != 220 {
		t.Errorf("simulated insts %d, want 220", sw.SimInsts)
	}
	if sw.Schema != SweepSchema {
		t.Errorf("schema %q, want %q", sw.Schema, SweepSchema)
	}
}

func TestSweepLogWriteDir(t *testing.T) {
	dir := t.TempDir()
	l := NewSweepLog()
	l.AddCPI(RunMeta{Workload: "w", Cfg: config.Default(), Warmup: 1, Insts: 2}, stats.Sim{}, nil)
	if err := l.WriteDir(dir, 1, 1); err != nil {
		t.Fatal(err)
	}
	fp := config.Default().Fingerprint()[:12]
	for _, name := range []string{"000_w_" + fp + ".json", "sweep.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !json.Valid(b) {
			t.Errorf("%s: invalid JSON", name)
		}
	}
}
