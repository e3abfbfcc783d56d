package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the smoke
// test checks the command against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestWorkloadsSmoke runs each workload traced at 1/50 scale and checks
// that it prints every metric BENCHMARK.json names, with its unit, that
// the summary carries exactly the per-layer metrics, and that no output
// check failed.
func TestWorkloadsSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("BENCHMARK.json workload %d is %s, the command's is %s", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			out, err := runWorkload(options{
				workload: w.Name, seed: 1, seconds: 0.4, traced: true, scale: 0.02, workDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 {
				t.Fatalf("%d of %d checks failed: %v", out.failed, out.attempted, out.problems)
			}
			var buf bytes.Buffer
			if err := out.write(&buf, true); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			printed := map[string]string{}
			for _, l := range lines[:len(lines)-1] {
				f := strings.Fields(l)
				if len(f) != 3 {
					t.Fatalf("line %q is not <name> <value> <unit>", l)
				}
				printed[f[0]] = f[2]
			}
			for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
				if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
					t.Errorf("metric %s: printed unit %q (printed: %t), want %q", m.Name, unit, ok, m.Unit)
				}
			}
			if v := printed["fail_ratio"]; v != "frac" {
				t.Errorf("fail_ratio not printed")
			}
			var sum summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatal(err)
			}
			if !sum.Correct || sum.Failed != 0 || len(sum.Metrics) != len(spec.PerLayer) {
				t.Errorf("summary: correct %t, failed %d, %d metrics (want %d)", sum.Correct, sum.Failed, len(sum.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if _, ok := sum.Metrics[m.Name]; !ok {
					t.Errorf("summary lacks per-layer metric %s", m.Name)
				}
			}
			e2e := map[string]bool{}
			for _, m := range out.e2e {
				e2e[m.Name] = true
			}
			for _, m := range spec.EndToEnd {
				if !e2e[m.Name] {
					t.Errorf("untraced summary would lack %s", m.Name)
				}
			}
			if len(out.e2e) != len(spec.EndToEnd) {
				t.Errorf("%d end-to-end metrics, BENCHMARK.json names %d", len(out.e2e), len(spec.EndToEnd))
			}
		})
	}
}
