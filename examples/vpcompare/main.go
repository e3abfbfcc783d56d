// vpcompare contrasts the paper's three value prediction flavors — MVP
// (0/1 only, 7.9 KB), TVP (9-bit signed, 13.9 KB) and GVP (full 64-bit,
// 55.2 KB) — on a workload of your choice, reproducing a single row of
// the paper's Fig. 3.
//
//	go run ./examples/vpcompare [workload]
package main

import (
	"fmt"
	"log"
	"os"

	tvp "repro"
	"repro/internal/config"
	"repro/internal/report"
)

func main() {
	workload := "623_xalancbmk_s" // the paper's §6.1 outlier by default
	if len(os.Args) > 1 {
		workload = os.Args[1]
	}

	modes := []tvp.VPMode{tvp.VPOff, tvp.MVP, tvp.TVP, tvp.GVP}
	opts := make([]tvp.Options, len(modes))
	for i, m := range modes {
		opts[i] = tvp.Options{Workload: workload, VP: m, Warmup: 30_000, MaxInsts: 200_000}
	}
	results, errs := tvp.RunMany(opts)
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}

	base := &results[0].Stats
	fmt.Printf("workload: %s (baseline IPC %.3f)\n\n", workload, base.IPC())
	fmt.Printf("%-8s %10s %9s %8s %8s %10s\n", "flavor", "storage", "speedup", "cov%", "acc%", "flushes")
	for i, m := range modes[1:] {
		st := &results[i+1].Stats
		fmt.Printf("%-8s %8.1fKB %+8.2f%% %8.2f %8.2f %10d\n",
			m, report.StorageKB(config.Default(), m),
			st.Speedup(base), 100*st.VPCoverage(), 100*st.VPAccuracy(), st.VPFlushes)
	}
	fmt.Println("\nThe paper's headline (§8): a 7.9 KB MVP or 13.9 KB TVP captures a useful")
	fmt.Println("fraction of what a 55.2 KB GVP delivers, with far less pipeline intrusion —")
	fmt.Println("except where the critical values are wide pointers (xalancbmk), which only")
	fmt.Println("GVP can predict.")
}
