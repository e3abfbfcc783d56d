package tvp

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/stats"
)

func TestRunDefaults(t *testing.T) {
	res, err := Run(Options{Workload: "648_exchange2_s", Warmup: 5000, MaxInsts: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IPC() <= 0 {
		t.Error("no progress")
	}
	if res.Committed < 35000 {
		t.Errorf("total committed %d < warmup+measured", res.Committed)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(Options{Workload: "no_such_thing"}); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestRunCustomProgram(t *testing.T) {
	b := prog.NewBuilder("custom")
	b.MovImm(isa.X1, 50000)
	top := b.Here()
	b.AddI(isa.X2, isa.X2, 3)
	b.SubsI(isa.X1, isa.X1, 1)
	b.BCond(isa.NE, top)
	b.Halt()
	res, err := Run(Options{Program: b.Build(), Warmup: 1000, MaxInsts: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IPC() <= 0 || res.Committed < 21000 {
		t.Errorf("custom program: IPC %.3f, %d committed; want progress past warmup+measured", res.Stats.IPC(), res.Committed)
	}
}

func TestRunAllVPModes(t *testing.T) {
	for _, m := range []VPMode{VPOff, MVP, TVP, GVP} {
		res, err := Run(Options{Workload: "641_leela_s", VP: m, SpSR: m != VPOff, Warmup: 2000, MaxInsts: 20000})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Stats.IPC() <= 0 {
			t.Errorf("%v made no progress", m)
		}
	}
}

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 31 { // 28 paper points + 3 promoted fuzzgen members
		t.Fatalf("suite size %d", len(bs))
	}
	if bs[0] != "600_perlbench_s_1" {
		t.Errorf("first = %s; the list must follow the paper's figure order", bs[0])
	}
	if bs[28] != "901_fuzz_dispatch_s" {
		t.Errorf("bs[28] = %s; promoted members must follow the paper prefix", bs[28])
	}
}

func TestRunMany(t *testing.T) {
	opts := []Options{
		{Workload: "648_exchange2_s", Warmup: 1000, MaxInsts: 10000},
		{Workload: "does_not_exist"},
		{Workload: "641_leela_s", VP: GVP, Warmup: 1000, MaxInsts: 10000},
	}
	results, errs := RunMany(opts)
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("valid runs errored: %v %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Error("invalid run must carry an error")
	}
	if results[0].Stats.IPC() <= 0 || results[2].Stats.IPC() <= 0 {
		t.Error("results missing")
	}
}

func TestDefaultConfigIsValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEntryPointParity: one point gives the same answer through every
// entry point — tvp.Run, report.Execute, report.Simulate, and a
// memory-only tvpd server — on a high-IPC and a low-IPC workload.
// tvp.Run returns exactly Execute's whole result.
func TestEntryPointParity(t *testing.T) {
	const warm, insts = 5000, 30000
	ctx := context.Background()
	for _, w := range []string{"648_exchange2_s", "605_mcf_s"} {
		t.Run(w, func(t *testing.T) {
			p := report.Point{Workload: w, Cfg: config.Default().WithVP(TVP).WithSpSR(true), Warmup: warm, Insts: insts}
			run, err := Run(Options{Workload: w, VP: TVP, SpSR: true, Warmup: warm, MaxInsts: insts})
			if err != nil {
				t.Fatal(err)
			}
			live, err := report.Execute(ctx, p, report.Attach{})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := report.Simulate(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			srv := serve.New(serve.Config{Workers: 1})
			defer srv.Close()
			served, source, err := srv.Resolve(ctx, p)
			if err != nil || source != serve.SourceComputed {
				t.Fatalf("serve: source %q, err %v", source, err)
			}

			for _, got := range []struct {
				path string
				st   stats.Sim
			}{{"Simulate", sim}, {"serve.Resolve", served}} {
				if got.st != live.Stats {
					t.Errorf("%s stats differ from Execute's:\n got %+v\nwant %+v", got.path, got.st, live.Stats)
				}
			}
			if run != live {
				t.Errorf("tvp.Run's result differs from Execute's:\n got %+v\nwant %+v", run, live)
			}
			if live.CPI.Total() == 0 {
				t.Error("Execute returned an empty CPI stack")
			}
		})
	}
}
