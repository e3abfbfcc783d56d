package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it, so a single slow sample
// cannot be the reported tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100):
// the smallest sample with at least p% of the samples at or below it. It
// refuses a tail (p > 50) with fewer than minBeyond samples beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	if p > 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it (need %d)", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the nearest-rank p50, which the percentile rule never
// refuses; it is 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 50)
	return v
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one printed measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metric) line() string {
	return m.Name + " " + strconv.FormatFloat(m.Value, 'g', -1, 64) + " " + m.Unit
}

// outcome collects everything one run reports.
type outcome struct {
	// e2e are the end-to-end metrics of the untraced phase, layer the
	// per-layer metrics of the traced phase, info the lines printed for
	// reading only (tails, counts, validity checks).
	e2e, layer, info []metric
	// attempted counts ops and output checks; failed those that errored
	// or mismatched.
	attempted, failed int
	problems          []string
	// samples are the raw per-op and per-round values behind the metrics.
	samples map[string][]float64
	// digests maps each result to a digest of its bytes, for the golden
	// file.
	digests map[string]string
}

func newOutcome() *outcome {
	return &outcome{samples: map[string][]float64{}, digests: map[string]string{}}
}

func (o *outcome) addE2E(name string, v float64, unit string) {
	o.e2e = append(o.e2e, metric{name, v, unit})
}

func (o *outcome) addLayer(name string, v float64, unit string) {
	o.layer = append(o.layer, metric{name, v, unit})
}

func (o *outcome) addInfo(name string, v float64, unit string) {
	o.info = append(o.info, metric{name, v, unit})
}

// addTail prints the p-th percentile of xs as an info line, or says why
// the percentile rule refused it.
func (o *outcome) addTail(name string, xs []float64, p float64, unit string) {
	v, err := percentile(xs, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tvpbench: %s not reported: %v\n", name, err)
		return
	}
	o.addInfo(name, v, unit)
}

// check counts one output check, failing it with msg when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]valueUnits `json:"metrics"`
}

type valueUnits struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints every metric as a line, then the JSON summary holding the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
func (o *outcome) write(w io.Writer, traced bool) error {
	for _, group := range [][]metric{o.e2e, o.layer, o.info} {
		for _, m := range group {
			fmt.Fprintln(w, m.line())
		}
	}
	s := summary{Correct: o.failed == 0, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]valueUnits{}}
	chosen := o.e2e
	if traced {
		chosen = o.layer
	}
	for _, m := range chosen {
		s.Metrics[m.Name] = valueUnits{m.Value, m.Unit}
	}
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeSample is the Go runtime's cumulative allocation and CPU
// accounting at one instant.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeMetrics = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// addRuntime reports allocation per op and the garbage collector's share
// of CPU time between two samples.
func (o *outcome) addRuntime(before, after runtimeSample, ops int) {
	o.addLayer("go.alloc_mb_per_op", ratio(after.allocBytes-before.allocBytes, float64(ops))/1e6, "MB")
	o.addLayer("go.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "frac")
}
