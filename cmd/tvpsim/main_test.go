// Process-level golden tests for tvpsim: each case runs the real binary
// from the module root and compares its exit status, stdout, stderr and
// (for -konata) the trace file with testdata/<case>.golden. Regenerate
// with `go test ./cmd/tvpsim -update` after an intended output change.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden")

var tvpsimBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tvpsim-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tvpsimBin = filepath.Join(dir, "tvpsim")
	if out, err := exec.Command("go", "build", "-o", tvpsimBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building tvpsim: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// konataArg stands for the -konata output path in a case's arguments;
// the test substitutes a fresh temporary file and golden-checks its
// contents.
const konataArg = "KONATA"

const (
	corpusBin = "internal/workload/testdata/corpus/903_fuzz_calls_s.tvpb"
	badBin    = "internal/isa/verify/testdata/bad/loop_inescapable.tvpb"
)

var goldenCases = []struct {
	name string
	args []string
}{
	{"plain", []string{"-workload", "602_gcc_s_2", "-vp", "tvp", "-spsr", "-insts", "20000", "-warmup", "5000"}},
	{"all", []string{"-all", "-vp", "tvp", "-spsr", "-insts", "5000", "-warmup", "1000"}},
	{"cpistack", []string{"-workload", "605_mcf_s", "-vp", "gvp", "-cpistack", "-insts", "20000", "-warmup", "5000"}},
	{"json", []string{"-workload", "648_exchange2_s", "-vp", "tvp", "-json", "-insts", "20000", "-warmup", "5000", "-interval", "5000", "-topk", "4"}},
	{"compare", []string{"-compare", "-workload", "602_gcc_s_2", "-insts", "20000", "-warmup", "5000"}},
	{"pipetrace", []string{"-workload", "648_exchange2_s", "-pipetrace", "16"}},
	{"konata", []string{"-workload", "648_exchange2_s", "-insts", "64", "-warmup", "0", "-konata", konataArg}},
	{"crosscheck", []string{"-workload", "903_fuzz_calls_s", "-vp", "tvp", "-spsr", "-crosscheck", "-insts", "20000", "-warmup", "5000"}},
	{"load", []string{"-load", corpusBin, "-vp", "tvp", "-insts", "20000", "-warmup", "5000"}},
	{"verify_ok", []string{"-verify", corpusBin}},
	{"verify_rejected", []string{"-verify", badBin}},
	{"list", []string{"-list"}},
	{"unknown_workload", []string{"-workload", "no_such_thing", "-insts", "1000"}},
	{"err_unknown_flag", []string{"-no-such-flag"}},
	{"err_bad_vp", []string{"-workload", "602_gcc_s_2", "-vp", "bogus"}},
	{"err_no_workload", nil},
	{"err_compare_json", []string{"-compare", "-json"}},
	{"err_cpistack_json", []string{"-workload", "602_gcc_s_2", "-cpistack", "-json"}},
	{"err_pipetrace_all", []string{"-all", "-pipetrace", "4"}},
	{"err_konata_all", []string{"-all", "-konata", konataArg}},
}

// TestGolden pins every tvpsim mode byte for byte at a short run length.
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			konataPath := filepath.Join(t.TempDir(), "konata.log")
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				if a == konataArg {
					a = konataPath
				}
				args[i] = a
			}
			// Args[0] is the bare name so flag usage text does not carry
			// the temporary build path.
			cmd := &exec.Cmd{Path: tvpsimBin, Args: append([]string{"tvpsim"}, args...), Dir: "../.."}
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				code = exit.ExitCode()
			}

			var got strings.Builder
			fmt.Fprintf(&got, "$ tvpsim %s\nexit status %d\n", strings.Join(tc.args, " "), code)
			fmt.Fprintf(&got, "-- stdout --\n%s-- stderr --\n%s", stdout.String(), stderr.String())
			if trace, err := os.ReadFile(konataPath); err == nil {
				fmt.Fprintf(&got, "-- konata --\n%s", trace)
			}

			golden := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got.String() != string(want) {
				t.Errorf("output differs from %s; rerun with -update if the change is intended\n%s", golden, firstDiff(string(want), got.String()))
			}
		})
	}
}

// firstDiff reports the first line where want and got disagree.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return ""
}
