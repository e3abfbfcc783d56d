// Command tvpbench is the repository's benchmark. It runs one named
// workload against the simulator, the report harness or the tvpd daemon,
// checks every output, and prints each metric as a `<name> <value> <unit>`
// line followed by one JSON summary line.
//
// Usage (from cmd/tvpbench, or through run.sh from the repository root):
//
//	go run . -workload sim-highipc -seed 1 -seconds 20 -trace 0
//	go run . -workload tvpd-mixed -trace 1 -spans spans.json -json out.json
//
// An untraced run (-trace 0) measures the end-to-end metrics and puts them
// in the summary. A traced run (-trace 1) measures the same schedule once
// untraced and once with spans around every layer call, runs the side
// measurements, and puts the per-layer metrics in the summary. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. Set-up takes milliseconds or less, so one repetition is at the
// mercy of a single page fault or preemption.
const setupReps = 21

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	traced    bool
	scale     float64 // instruction lengths; 1 except in the smoke test
	workDir   string
	spansPath string
	jsonPath  string
	update    string
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(*bench) error
}{
	{"sim-highipc", func(b *bench) error { return runSim(b, highIPCPrograms) }},
	{"sim-lowipc", func(b *bench) error { return runSim(b, lowIPCPrograms) }},
	{"report-sweep", runReportSweep},
	{"tvpd-mixed", runTVPD},
}

// workloadRun returns the named workload's run function, or nil.
func workloadRun(name string) func(*bench) error {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

// bench is the state of one run.
type bench struct {
	opt options
	out *outcome
	tr  *tracer // nil until the traced phase
}

// phaseSeconds is the length of each timed phase: the whole run untraced,
// or half of it for each of the untraced and traced phases.
func (b *bench) phaseSeconds() time.Duration {
	s := b.opt.seconds
	if b.opt.traced {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	out, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "tvpbench:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "tvpbench: check failed:", p)
	}
	if err := out.write(stdout, o.traced); err != nil {
		fmt.Fprintln(stderr, "tvpbench:", err)
		return 1
	}
	if out.failed > 0 {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("tvpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scale: 1}
	fs.StringVar(&o.workload, "workload", "", "workload: sim-highipc|sim-lowipc|report-sweep|tvpd-mixed")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed part of the run")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	fs.StringVar(&o.spansPath, "spans", "", "traced run: write the spans to this JSON file")
	fs.StringVar(&o.jsonPath, "json", "", "write every metric and the raw samples to this JSON file")
	fs.StringVar(&o.workDir, "workdir", os.TempDir(), "directory for the run's scratch files (removed at exit)")
	fs.StringVar(&o.update, "update", "", "rewrite this golden file's entry for the workload with this run's digests (seed 1)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.traced = *trace == 1
	var bad error
	switch {
	case workloadRun(o.workload) == nil:
		bad = fmt.Errorf("unknown -workload %q (want sim-highipc|sim-lowipc|report-sweep|tvpd-mixed)", o.workload)
	case *trace != 0 && *trace != 1:
		bad = fmt.Errorf("-trace %d (want 0 or 1)", *trace)
	case o.seconds <= 0:
		bad = fmt.Errorf("-seconds %g (want > 0)", o.seconds)
	case o.update != "" && o.seed != 1:
		bad = errors.New("-update records seed 1 only")
	}
	if bad != nil {
		fmt.Fprintln(stderr, "tvpbench:", bad)
	}
	return o, bad
}

// runWorkload runs one workload and its output checks.
func runWorkload(o options) (*outcome, error) {
	b := &bench{opt: o, out: newOutcome()}
	if err := workloadRun(o.workload)(b); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if err := b.checkGolden(); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	b.out.addE2E("peak_rss_mb", rss, "MB")
	b.out.addInfo("fail_ratio", ratio(float64(b.out.failed), float64(max(b.out.attempted, 1))), "frac")
	b.out.fillLayers()
	if o.traced && o.spansPath != "" {
		if err := b.tr.writeFile(o.spansPath); err != nil {
			return nil, err
		}
	}
	if o.jsonPath != "" {
		if err := b.writeJSON(o.jsonPath); err != nil {
			return nil, err
		}
	}
	return b.out, nil
}

// writeJSON writes every metric and the raw samples behind them.
func (b *bench) writeJSON(path string) error {
	all := append(append(append([]metric(nil), b.out.e2e...), b.out.layer...), b.out.info...)
	doc := struct {
		Workload  string               `json:"workload"`
		Seed      uint64               `json:"seed"`
		Seconds   float64              `json:"seconds"`
		Traced    bool                 `json:"traced"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   []metric             `json:"metrics"`
		Samples   map[string][]float64 `json:"samples"`
	}{b.opt.workload, b.opt.seed, b.opt.seconds, b.opt.traced, b.out.attempted, b.out.failed, all, b.out.samples}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// medianSetup runs set-up setupReps times and reports the median time as
// setup_s. Each repetition starts from a collected heap, so a collection
// the previous one left due is not charged to it.
func (b *bench) medianSetup(f func() error) error {
	ts := make([]float64, 0, setupReps)
	for range setupReps {
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			return err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	b.addSetup(ts)
	return nil
}

func (b *bench) addSetup(ts []float64) {
	b.out.addE2E("setup_s", median(ts), "s")
	b.out.samples["setup_s"] = ts
}

// sinceMS is the time since start in milliseconds.
func sinceMS(start time.Time) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// keepRunning reports whether a closed-loop phase that started at start
// should begin another round: at least one round runs, and a round
// starts only if half of the last one still fits in the phase, so the
// phase ends within half a round of its length.
func keepRunning(start time.Time, rounds int, last, length time.Duration) bool {
	return rounds == 0 || time.Since(start)+last/2 <= length
}
