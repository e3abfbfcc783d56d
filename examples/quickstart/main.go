// Quickstart: simulate one workload on the paper's Table 2 machine with
// Targeted Value Prediction and Speculative Strength Reduction enabled,
// and print the headline numbers.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	tvp "repro"
)

func main() {
	const name = "602_gcc_s_2"
	base, err := tvp.Run(tvp.Options{
		Workload: name,
		Warmup:   20_000,
		MaxInsts: 150_000,
	})
	if err != nil {
		log.Fatal(err)
	}

	res, err := tvp.Run(tvp.Options{
		Workload: name,
		VP:       tvp.TVP, // 9-bit targeted value prediction (§3.2)
		SpSR:     true,    // speculative strength reduction (§4)
		Warmup:   20_000,
		MaxInsts: 150_000,
	})
	if err != nil {
		log.Fatal(err)
	}

	st := &res.Stats
	fmt.Printf("workload            %s\n", name)
	fmt.Printf("baseline IPC        %.3f\n", base.Stats.IPC())
	fmt.Printf("TVP+SpSR IPC        %.3f  (%+.2f%%)\n",
		st.IPC(), st.Speedup(&base.Stats))
	fmt.Printf("VP coverage         %.1f%% of eligible instructions\n", 100*st.VPCoverage())
	fmt.Printf("VP accuracy         %.2f%% of used predictions\n", 100*st.VPAccuracy())
	fmt.Printf("eliminated @ rename %.2f%% (moves %.2f%%, 0-idiom %.2f%%, 9-bit %.2f%%, SpSR %.2f%%)\n",
		100*st.ElimFraction(st.MoveElim+st.ZeroIdiomElim+st.OneIdiomElim+st.NineBitElim+st.SpSRElim),
		100*st.ElimFraction(st.MoveElim), 100*st.ElimFraction(st.ZeroIdiomElim),
		100*st.ElimFraction(st.NineBitElim), 100*st.ElimFraction(st.SpSRElim))
	fmt.Printf("value mispredicts   %d (each flushed and re-fetched the predicted instruction, §3.4)\n",
		st.VPIncorrectUsed)
}
