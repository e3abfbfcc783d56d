package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/stats"
)

// Heartbeat prints a throttled one-line progress report for long sweeps:
// runs done/planned, how many the memoization cache absorbed, realized
// simulation MIPS and an ETA extrapolated from per-run wall time. It is
// concurrency-safe; tvpreport's worker pool reports into one Heartbeat.
type Heartbeat struct {
	mu        sync.Mutex
	w         io.Writer
	start     time.Time
	lastPrint time.Time
	period    time.Duration
	planned   int
	done      int
	cached    int
	workers   int
	simInsts  uint64
	// Cycle accounting across finished runs (RunDoneStats): skipped vs
	// total simulated cycles for the skip-% readout, and the summed CPI
	// stack for the top-bucket readout. Plain sums under the heartbeat
	// mutex, so the aggregate is exact for any number of workers.
	cycles  uint64
	skipped uint64
	cpi     stats.CPIStack
}

// NewHeartbeat returns a Heartbeat writing to w (normally os.Stderr so
// progress never pollutes machine-readable stdout), printing at most
// once per second.
func NewHeartbeat(w io.Writer) *Heartbeat {
	return &Heartbeat{w: w, start: time.Now(), period: time.Second}
}

// AddPlanned grows the denominator before (or while) runs execute.
func (h *Heartbeat) AddPlanned(n int) {
	h.mu.Lock()
	h.planned += n
	h.mu.Unlock()
}

// SetWorkers records the sweep pool width for the progress line. Purely
// informational: MIPS and ETA are aggregates over wall time and run
// counts, so they are already correct for any number of concurrent
// workers (and under cycle skipping, since progress is measured in
// simulated instructions, never cycles).
func (h *Heartbeat) SetWorkers(n int) {
	h.mu.Lock()
	h.workers = n
	h.mu.Unlock()
}

// RunDoneStats records one finished run. simInsts is how many
// instructions were actually simulated for it (0 for a cache recall);
// cached marks a memoized point. cycles/skipped feed the skipped-cycle
// percentage and cpi (nil when the run carried no CPI accounting) feeds
// the running top-bucket readout. Cached recalls pass zeros — the line
// reports what was actually simulated. A line is printed if the
// throttle period has elapsed.
func (h *Heartbeat) RunDoneStats(simInsts uint64, cached bool, cycles, skipped uint64, cpi *stats.CPIStack) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.done++
	h.simInsts += simInsts
	h.cycles += cycles
	h.skipped += skipped
	if cpi != nil {
		h.cpi.AddCPI(cpi)
	}
	if cached {
		h.cached++
	}
	if now := time.Now(); now.Sub(h.lastPrint) >= h.period {
		h.print(now)
	}
}

// Finish prints a final unconditional line (total wall time, no ETA).
func (h *Heartbeat) Finish() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.print(time.Now())
}

// print assumes h.mu is held.
func (h *Heartbeat) print(now time.Time) {
	h.lastPrint = now
	elapsed := now.Sub(h.start)
	mips := 0.0
	if s := elapsed.Seconds(); s > 0 {
		mips = float64(h.simInsts) / s / 1e6
	}
	line := fmt.Sprintf("obs: %d/%d runs (%d cached) | %.1f MIPS | %.1fs elapsed",
		h.done, h.planned, h.cached, mips, elapsed.Seconds())
	if h.workers > 0 {
		line = fmt.Sprintf("obs[j%d]: %d/%d runs (%d cached) | %.1f MIPS | %.1fs elapsed",
			h.workers, h.done, h.planned, h.cached, mips, elapsed.Seconds())
	}
	if h.cycles > 0 {
		line += fmt.Sprintf(" | skip %.1f%%", 100*float64(h.skipped)/float64(h.cycles))
	}
	if top := h.cpi.Top(); top.Slots > 0 {
		line += " | top " + top.Name
	}
	if h.done > 0 && h.done < h.planned {
		eta := time.Duration(float64(elapsed) / float64(h.done) * float64(h.planned-h.done))
		line += fmt.Sprintf(" | eta %ds", int(eta.Seconds()+0.5))
	}
	fmt.Fprintln(h.w, line)
}
