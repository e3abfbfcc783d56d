// Command tvpdump is the suite's debugging lens: it disassembles a
// workload's program and/or dumps the first N dynamic instructions of its
// functional execution (PC, disassembly, result, effective address,
// branch outcome), which is how workload kernels were validated while
// building the suite.
//
// Usage:
//
//	tvpdump -workload 623_xalancbmk_s -disasm
//	tvpdump -workload 605_mcf_s -trace 50
//	tvpdump -workload 600_perlbench_s_1 -values 200000
//	tvpdump -workload 605_mcf_s -encode mcf.tvpb
//
// -encode writes the built program as a TVPB container — the binary
// interchange format tvpsim re-ingests behind the static verifier
// (tvpsim -load / -verify).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/isa/tvpb"
	"repro/internal/workload"
)

func main() {
	var (
		wl     = flag.String("workload", "", "workload name")
		disasm = flag.Bool("disasm", false, "print the static program")
		trace  = flag.Int("trace", 0, "dump the first N dynamic instructions")
		values = flag.Int("values", 0, "histogram GPR result values over N instructions")
		encode = flag.String("encode", "", "write the program as a TVPB container to this file")
	)
	flag.Parse()
	if *wl == "" {
		fmt.Fprintln(os.Stderr, "tvpdump: need -workload (see tvpsim -list)")
		os.Exit(2)
	}
	spec, err := workload.Get(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvpdump:", err)
		os.Exit(2)
	}
	p := spec.Build()

	if *encode != "" {
		data := tvpb.EncodeProgram(p)
		if err := os.WriteFile(*encode, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "tvpdump:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: wrote %d bytes (%d instructions, %d segments) to %s\n",
			p.Name, len(data), len(p.Code), len(p.Data), *encode)
	}

	if *disasm {
		fmt.Printf("%s: %d instructions, %d data segments\n", p.Name, len(p.Code), len(p.Data))
		for i := range p.Code {
			fmt.Printf("%4d  %s\n", i, p.Code[i].String())
		}
	}

	if *trace > 0 {
		e := emu.New(p)
		var d emu.DynInst
		for i := 0; i < *trace && e.Step(&d); i++ {
			line := fmt.Sprintf("%8d  %#x  %-32s", d.Seq, d.PC, d.Inst.String())
			if d.WritesGPRResult() {
				line += fmt.Sprintf(" = %#x", d.Result)
			}
			if isa.IsMem(d.Inst.Op) {
				line += fmt.Sprintf("  [ea %#x]", d.EA)
			}
			if isa.IsBranch(d.Inst.Op) {
				line += fmt.Sprintf("  taken=%v → %#x", d.Taken, d.NextPC)
			}
			fmt.Println(line)
		}
	}

	if *values > 0 {
		e := emu.New(p)
		var d emu.DynInst
		counts := map[uint64]uint64{}
		var total uint64
		for i := 0; i < *values && e.Step(&d); i++ {
			if d.WritesGPRResult() {
				counts[d.Result]++
				total++
			}
		}
		type vc struct {
			v uint64
			c uint64
		}
		var vs []vc
		for v, c := range counts {
			vs = append(vs, vc{v, c})
		}
		// Descending by count, value as the tie-break so the list does
		// not depend on map-iteration order.
		sort.Slice(vs, func(i, j int) bool {
			if vs[i].c != vs[j].c {
				return vs[i].c > vs[j].c
			}
			return vs[i].v < vs[j].v
		})
		if len(vs) > 20 {
			vs = vs[:20]
		}
		fmt.Printf("top GPR result values over %d instructions (%d produced):\n", *values, total)
		for _, x := range vs {
			fmt.Printf("  %#-18x %6.2f%%\n", x.v, 100*float64(x.c)/float64(total))
		}
	}
}
