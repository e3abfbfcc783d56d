package obs

import (
	"fmt"
	"io"
	"time"

	"repro/internal/pipeline"
	"repro/internal/stats"
)

// progress is a SweepLog's throttled one-line progress report: runs
// done/planned, how many the memoization cache absorbed, realized
// simulation MIPS, the skipped-cycle share, the top CPI bucket, and an
// ETA extrapolated from per-run wall time. It is off while w is nil.
type progress struct {
	w         io.Writer
	workers   int
	lastPrint time.Time
	// Cycle accounting across simulated runs: skipped vs total cycles
	// for the skip-% readout, and the summed CPI stack for the top-bucket
	// readout. Plain sums under the log's mutex, so the aggregate is
	// exact for any number of workers. Recalls add nothing: the line
	// reports what was actually simulated.
	cycles  uint64
	skipped uint64
	cpi     stats.CPIStack
}

// progressPeriod is the shortest time between two progress lines.
const progressPeriod = time.Second

// Progress turns the progress line on. It goes to w (normally os.Stderr,
// so progress never pollutes machine-readable stdout), tagged with the
// sweep pool width. MIPS and ETA are aggregates over wall time and run
// counts, so they are correct for any number of concurrent workers (and
// under cycle skipping, since progress is measured in simulated
// instructions, never cycles).
func (l *SweepLog) Progress(w io.Writer, workers int) {
	l.mu.Lock()
	l.progress.w, l.progress.workers = w, workers
	l.mu.Unlock()
}

// beat folds one finished run into the progress line and prints the line
// if the throttle period has elapsed. l.mu is held.
func (l *SweepLog) beat(cached bool, r *pipeline.Result) {
	p := &l.progress
	if p.w == nil {
		return
	}
	if !cached {
		p.cycles += r.Cycles
		p.skipped += r.Skipped
		p.cpi.AddCPI(&r.CPI)
	}
	if now := time.Now(); now.Sub(p.lastPrint) >= progressPeriod {
		l.print(now)
	}
}

// Finish prints a final unconditional progress line (total wall time, no
// ETA) if the line is on.
func (l *SweepLog) Finish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.progress.w != nil {
		l.print(time.Now())
	}
}

// print writes the progress line. l.mu is held.
func (l *SweepLog) print(now time.Time) {
	p := &l.progress
	p.lastPrint = now
	elapsed := now.Sub(l.start)
	mips := 0.0
	if s := elapsed.Seconds(); s > 0 {
		mips = float64(l.simInsts) / s / 1e6
	}
	line := fmt.Sprintf("obs[j%d]: %d/%d runs (%d cached) | %.1f MIPS | %.1fs elapsed",
		p.workers, l.runs, l.planned, l.cached, mips, elapsed.Seconds())
	if p.cycles > 0 {
		line += fmt.Sprintf(" | skip %.1f%%", 100*float64(p.skipped)/float64(p.cycles))
	}
	if top := p.cpi.Top(); top.Slots > 0 {
		line += " | top " + top.Name
	}
	if l.runs > 0 && l.runs < l.planned {
		eta := time.Duration(float64(elapsed) / float64(l.runs) * float64(l.planned-l.runs))
		line += fmt.Sprintf(" | eta %ds", int(eta.Seconds()+0.5))
	}
	fmt.Fprintln(p.w, line)
}
