package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// newRNG returns the generator of one named input stream of a seed, so
// each workload draws its inputs independently of the others.
func newRNG(seed uint64, stream string) *xrand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return xrand.New(seed ^ h.Sum64())
}

// between returns a value in [lo, hi].
func between(r *xrand.Rand, lo, hi uint64) uint64 { return lo + r.Uint64n(hi-lo+1) }

// perm returns a permutation of [0, n) (Fisher-Yates).
func perm(r *xrand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// scaled shrinks an instruction count for the reduced-scale smoke test.
func scaled(n uint64, scale float64) uint64 {
	return max(1, uint64(float64(n)*scale))
}

// vpModes are the value-prediction flavors in the order the schedules
// draw them, under the names tvpd's API takes.
var vpModes = []struct {
	name string
	mode config.VPMode
}{{"off", config.VPOff}, {"mvp", config.MVP}, {"tvp", config.TVP}, {"gvp", config.GVP}}

// point is one simulation point: a workload on the default machine with
// one VP flavor and SpSR setting, run for a warmup and a measured length.
type point struct {
	Workload string
	VP       int // index into vpModes
	SpSR     bool
	Warmup   uint64
	Insts    uint64
}

func (p point) id() string {
	return fmt.Sprintf("%s/%s/spsr=%t/%d+%d", p.Workload, vpModes[p.VP].name, p.SpSR, p.Warmup, p.Insts)
}

func (p point) config() *config.Machine {
	return config.Default().WithVP(vpModes[p.VP].mode).WithSpSR(p.SpSR)
}

// reportPoint is the point as tvpd builds it from the request.
func (p point) reportPoint() report.Point {
	return report.Point{Workload: p.Workload, Cfg: p.config(), Warmup: p.Warmup, Insts: p.Insts}
}

// request is the point's tvpd /v1/run body.
func (p point) request() []byte {
	b, err := json.Marshal(map[string]any{
		"workload": p.Workload, "vp": vpModes[p.VP].name, "spsr": p.SpSR,
		"warmup": p.Warmup, "insts": p.Insts,
	})
	if err != nil {
		panic(err) // a map of strings, bools and integers always encodes
	}
	return b
}

// Program sets of the two simulation workloads (the regimes are described
// in README.md).
var (
	highIPCPrograms = []string{"648_exchange2_s", "901_fuzz_dispatch_s", "902_fuzz_fp_s", "631_deepsjeng_s", "638_imagick_s"}
	lowIPCPrograms  = []string{"605_mcf_s", "620_omnetpp_s", "625_x264_s_1", "623_xalancbmk_s", "602_gcc_s_3"}
)

// simOpInsts is the instructions every sim op simulates, warmup included.
const simOpInsts = 300_000

// simPairs returns every (program, VP flavor, SpSR) pair once, with the
// warmup the seed draws for it. The measured length is the rest of
// simOpInsts, so every seed simulates the same number of instructions
// per op and op times stay comparable across seeds.
func simPairs(programs []string, seed uint64, scale float64) []point {
	r := newRNG(seed, "sim-pairs")
	var ps []point
	for _, w := range programs {
		for vp := range vpModes {
			for _, spsr := range []bool{false, true} {
				warm := between(r, 30_000, 70_000)
				ps = append(ps, point{
					Workload: w, VP: vp, SpSR: spsr,
					Warmup: scaled(warm, scale),
					Insts:  scaled(simOpInsts-warm, scale),
				})
			}
		}
	}
	return ps
}

// roundOrder is the seeded order in which round runs the n pairs. Every
// round runs each pair once, so any number of whole rounds has the same
// mix.
func roundOrder(seed uint64, round, n int) []int {
	return perm(newRNG(seed, fmt.Sprintf("round-%d", round)), n)
}

// reportStrata group paper suite members whose full report costs about
// the same (within 5% of each other, measured at Warmup 10K / Insts 60K);
// each stratum mixes IPC regimes. The seed picks one member from each, so
// every seed asks for a similar amount of work. The promoted 9xx members
// are left out: the aggregate-only sections skip them, so a report with
// one simulates fewer points.
var reportStrata = [][]string{
	{"648_exchange2_s", "623_xalancbmk_s", "621_wrf_s", "628_pop2_s", "625_x264_s_2", "600_perlbench_s_1"},
	{"638_imagick_s", "627_cam4_s", "631_deepsjeng_s", "625_x264_s_3"},
	{"602_gcc_s_3", "620_omnetpp_s", "607_cactuBSSN_s", "625_x264_s_1"},
	{"600_perlbench_s_2", "602_gcc_s_2", "600_perlbench_s_3", "644_nab_s"},
}

// reportMembers draws one member per stratum, in seeded order.
func reportMembers(seed uint64) []string {
	r := newRNG(seed, "report-members")
	var ms []string
	for _, s := range reportStrata {
		ms = append(ms, s[r.Intn(len(s))])
	}
	out := make([]string, len(ms))
	for i, j := range perm(r, len(ms)) {
		out[i] = ms[j]
	}
	return out
}

// tvpd-mixed load: Poisson arrivals at a fixed rate, with the request mix
// below. Repeats pick points first requested at least repeatAge earlier,
// so they find a finished result in memory rather than joining a run in
// flight.
const (
	tvpdRate      = 40.0 // requests per second
	tvpdWarmup    = 16   // new points requested before the timed phase
	repeatAge     = time.Second
	shareMemory   = 0.55
	shareDisk     = 0.20
	shareNew      = 0.20 // the remaining 5% are new points sent twice at once
	tvpdRunWarmup = 10_000
)

// Request kinds of the tvpd-mixed schedule.
const (
	kindMemory = "memory" // repeats an earlier point
	kindDisk   = "disk"   // a point an earlier server wrote to the store
	kindNew    = "new"    // a point nobody has asked for
	kindDup    = "dup"    // a second copy of a new point, due at the same time
)

type tvpdRequest struct {
	Due   time.Duration
	Kind  string
	Point point
}

type tvpdSchedule struct {
	Warmup  []point // requested, untimed, before the timed phase
	Fixture []point // written to the store before the server starts
	Reqs    []tvpdRequest
}

// newTVPDSchedule draws the open-loop schedule for seconds of load.
func newTVPDSchedule(seed uint64, seconds, scale float64) tvpdSchedule {
	r := newRNG(seed, "tvpd")
	names := workload.Names()
	seen := map[string]bool{}
	fresh := func() point {
		for {
			p := point{
				Workload: names[r.Intn(len(names))],
				VP:       r.Intn(len(vpModes)),
				SpSR:     r.Intn(2) == 1,
				Warmup:   scaled(tvpdRunWarmup, scale),
				Insts:    scaled(1000*between(r, 20, 60), scale),
			}
			if !seen[p.id()] {
				seen[p.id()] = true
				return p
			}
		}
	}
	var s tvpdSchedule
	for range tvpdWarmup {
		s.Warmup = append(s.Warmup, fresh())
	}
	ready := append([]point(nil), s.Warmup...) // repeat candidates
	var pending []tvpdRequest                  // first requests, not yet old enough to repeat
	for t := 0.0; ; {
		t += -math.Log(1-r.Float64()) / tvpdRate
		if t >= seconds {
			break
		}
		due := time.Duration(t * float64(time.Second))
		for len(pending) > 0 && pending[0].Due <= due-repeatAge {
			ready = append(ready, pending[0].Point)
			pending = pending[1:]
		}
		var reqs []tvpdRequest
		switch u := r.Float64(); {
		case u < shareMemory:
			reqs = []tvpdRequest{{due, kindMemory, ready[r.Intn(len(ready))]}}
		case u < shareMemory+shareDisk:
			p := fresh()
			s.Fixture = append(s.Fixture, p)
			reqs = []tvpdRequest{{due, kindDisk, p}}
		case u < shareMemory+shareDisk+shareNew:
			reqs = []tvpdRequest{{due, kindNew, fresh()}}
		default:
			p := fresh()
			reqs = []tvpdRequest{{due, kindNew, p}, {due, kindDup, p}}
		}
		s.Reqs = append(s.Reqs, reqs...)
		if reqs[0].Kind != kindMemory {
			pending = append(pending, reqs[0])
		}
	}
	return s
}
