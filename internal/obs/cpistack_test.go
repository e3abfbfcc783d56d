package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// fillCPI sets every bucket to a distinct nonzero value via reflection,
// so a bucket added to stats.CPIStack is covered here automatically.
func fillCPI(offset uint64) stats.CPIStack {
	var s stats.CPIStack
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(offset + uint64(i)*31)
	}
	return s
}

// TestRunRecordCPISurvivesJSON: every CPI bucket survives the v2 record
// round trip, in both the totals block and an interval delta.
func TestRunRecordCPISurvivesJSON(t *testing.T) {
	rec := NewRunRecord(RunMeta{Workload: "w", Warmup: 1, Insts: 2}, stats.Sim{})
	rec.CPI = fillCPI(1000)
	rec.Intervals = []Sample{{StartInst: 1, EndInst: 2, CPIDelta: fillCPI(5000)}}
	if rec.Schema != RunSchema {
		t.Fatalf("new record schema %q, want %q", rec.Schema, RunSchema)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRunRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.CPI != rec.CPI {
		t.Errorf("CPI block mangled: %+v -> %+v", rec.CPI, back.CPI)
	}
	if len(back.Intervals) != 1 || back.Intervals[0].CPIDelta != rec.Intervals[0].CPIDelta {
		t.Errorf("interval CPIDelta mangled: %+v", back.Intervals)
	}
}

// TestDecodeRunRecordVersions: the decoder accepts v2 and legacy v1
// (CPI fields zero) and rejects unknown or missing schemas.
func TestDecodeRunRecordVersions(t *testing.T) {
	v1 := []byte(`{"schema":"` + RunSchemaV1 + `","workload":"w","totals":{"cycles":7}}`)
	rec, err := DecodeRunRecord(v1)
	if err != nil {
		t.Fatalf("v1 record rejected: %v", err)
	}
	if rec.Totals.Cycles != 7 || rec.CPI != (stats.CPIStack{}) {
		t.Errorf("v1 decode: totals %+v, cpi %+v", rec.Totals, rec.CPI)
	}

	if _, err := DecodeRunRecord([]byte(`{"schema":"tvp.obs.run/v99"}`)); err == nil ||
		!strings.Contains(err.Error(), "unsupported") {
		t.Errorf("unknown schema accepted (err=%v)", err)
	}
	if _, err := DecodeRunRecord([]byte(`{"workload":"w"}`)); err == nil {
		t.Error("schema-less record accepted")
	}
	if _, err := DecodeRunRecord([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

// TestTelemetryCPICoverage runs a real pipeline with Telemetry attached
// (which arms CPI accounting through the Probe seam) and checks the
// whole v2 payload hangs together: the record's CPI block decomposes
// Cycles × CommitWidth exactly, the interval CPIDeltas sum back to it,
// and the commit-stall attribution is bounded by the idle-slot total.
func TestTelemetryCPICoverage(t *testing.T) {
	cfg := config.Default().WithVP(config.TVP).WithSpSR(true)
	const warmup, insts, every = 2_000, 30_000, 5_000

	core := pipeline.New(cfg, traceProgram(8_000))
	tel := New(Config{Interval: every})
	core.SetProbe(tel)
	res := core.Run(warmup, insts)

	if res.CPI == (stats.CPIStack{}) {
		t.Fatal("attaching Telemetry did not arm CPI accounting")
	}
	if got, want := res.CPI.Total(), res.Stats.Cycles*uint64(cfg.CommitWidth); got != want {
		t.Fatalf("decomposition: Σ buckets = %d, want %d", got, want)
	}

	rec := tel.Record(RunMeta{Workload: "trace", Cfg: cfg, Warmup: warmup, Insts: insts}, res.Stats)
	if rec.CPI != res.CPI {
		t.Errorf("record CPI %+v != run CPI %+v", rec.CPI, res.CPI)
	}

	var sum stats.CPIStack
	for _, sm := range rec.Intervals {
		sum.AddCPI(&sm.CPIDelta)
	}
	if sum != rec.CPI {
		t.Errorf("interval CPIDeltas do not sum to totals:\nsum:    %+v\ntotals: %+v", sum, rec.CPI)
	}

	var stallSlots uint64
	for _, e := range rec.Attribution.CommitStalls {
		stallSlots += e.Count
		if e.Disasm == "" {
			t.Errorf("commit-stall entry %#x missing disassembly", e.PC)
		}
	}
	idle := rec.CPI.Total() - rec.CPI.Retiring - rec.CPI.RetiredSpSR
	if stallSlots == 0 || stallSlots > idle {
		t.Errorf("commit-stall attribution %d slots, want in (0, %d] (idle total)", stallSlots, idle)
	}
}

// TestTopPCAddWeighted: Add(n) accumulates weights and the space-saving
// eviction inherits the victim's count plus the new weight.
func TestTopPCAddWeighted(t *testing.T) {
	tp := NewTopPC(2)
	tp.Add(0x10, nil, 5)
	tp.Add(0x10, nil, 7)
	tp.Add(0x20, nil, 3)
	top := tp.Top(0)
	if len(top) != 2 || top[0].PC != 0x10 || top[0].Count != 12 || top[1].Count != 3 {
		t.Fatalf("weighted counts wrong: %+v", top)
	}
	// Table full: 0x30 evicts the minimum (0x20, count 3) and inherits.
	tp.Add(0x30, nil, 4)
	top = tp.Top(0)
	if len(top) != 2 || top[0].Count != 12 || top[1].PC != 0x30 || top[1].Count != 7 {
		t.Fatalf("eviction inheritance wrong: %+v", top)
	}
}

// TestHeartbeatCPILine: RunDoneStats aggregates skip % and the top
// CPI-stack bucket into the progress line; a run without cycles or a
// stack leaves both out.
func TestHeartbeatCPILine(t *testing.T) {
	var buf bytes.Buffer
	h := NewHeartbeat(&buf)
	h.AddPlanned(2)
	h.SetWorkers(4)
	cpi := stats.CPIStack{Retiring: 10, BackendMemory: 90}
	h.RunDoneStats(1000, false, 2000, 500, &cpi)
	cpi2 := stats.CPIStack{Retiring: 10, BackendMemory: 20}
	h.RunDoneStats(1000, false, 2000, 500, &cpi2)
	h.Finish()
	line := buf.String()
	if !strings.Contains(line, "skip 25.0%") {
		t.Errorf("line missing aggregated skip %% (1000/4000): %q", line)
	}
	if !strings.Contains(line, "top be-mem") {
		t.Errorf("line missing top bucket: %q", line)
	}
	if !strings.Contains(line, "obs[j4]") {
		t.Errorf("line missing worker tag: %q", line)
	}

	buf.Reset()
	h2 := NewHeartbeat(&buf)
	h2.AddPlanned(1)
	h2.RunDoneStats(500, false, 0, 0, nil)
	h2.Finish()
	if line := buf.String(); strings.Contains(line, "skip") || strings.Contains(line, "top ") {
		t.Errorf("CPI-less heartbeat grew CPI fields: %q", line)
	}
}
