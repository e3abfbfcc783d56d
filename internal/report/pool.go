package report

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// ErrPoolClosed is returned by Pool.Submit after Close.
var ErrPoolClosed = errors.New("report: pool closed")

// Pool is a bounded worker pool for simulation jobs. It is the pool that
// runAll's sweep fan-out runs on, extracted so long-lived callers (the
// tvpd daemon) can keep one pool across requests: a fixed number of
// workers executes jobs from a bounded queue, so the number of
// concurrently executing simulations — and therefore peak memory — is
// capped no matter how many requests are in flight. Submit blocks while
// the queue is full, which is the daemon's backpressure: a request
// waiting for a queue slot can still be abandoned through its context.
type Pool struct {
	jobs    chan func()
	done    chan struct{}
	workers int
	wg      sync.WaitGroup
	once    sync.Once
}

// NewPool starts a pool of workers goroutines consuming a queue of
// queue pending jobs. workers <= 0 means runtime.NumCPU(); queue < 0 is
// treated as 0 (direct hand-off, no buffering).
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{jobs: make(chan func(), queue), done: make(chan struct{}), workers: workers}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case j := <-p.jobs:
			j()
		case <-p.done:
			// Drain: queued jobs were accepted before Close and still run
			// (graceful drain — the daemon's SIGTERM path relies on it).
			for {
				select {
				case j := <-p.jobs:
					j()
				default:
					return
				}
			}
		}
	}
}

// Submit enqueues j, blocking while the queue is full. It fails with
// ctx's error if the context ends first, or ErrPoolClosed after Close.
func (p *Pool) Submit(ctx context.Context, j func()) error {
	select {
	case <-p.done:
		return ErrPoolClosed
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	select {
	case p.jobs <- j:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.done:
		return ErrPoolClosed
	}
}

// Close stops accepting new jobs, runs everything already queued, and
// waits for the workers to finish. Safe to call more than once.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.done) })
	p.wg.Wait()
}

// Each runs fn(0), …, fn(n-1) on a private pool of workers goroutines
// (<= 0: runtime.NumCPU()) and returns when all of them have finished.
// It is the fan-out of the figure sweeps, Fig. 1 and tvp.RunMany.
func Each(workers, n int, fn func(i int)) {
	p := NewPool(workers, 0)
	for i := 0; i < n; i++ {
		_ = p.Submit(context.Background(), func() { fn(i) }) // cannot fail: open pool, no deadline
	}
	p.Close() // runs every accepted job before returning
}

// Workers reports the pool width.
func (p *Pool) Workers() int { return p.workers }

// QueueDepth reports the current and maximum number of queued (not yet
// started) jobs — surfaced by the daemon's /v1/status endpoint.
func (p *Pool) QueueDepth() (queued, capacity int) { return len(p.jobs), cap(p.jobs) }
