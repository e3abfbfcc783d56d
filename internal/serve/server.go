// Package serve is the HTTP half of tvpd, the simulation-as-a-service
// daemon (cmd/tvpd): a thin, heavily-instrumented resolver that turns
// "workload × machine config × run length" questions into RunRecords
// while doing the minimum possible simulation work.
//
// Every request resolves through a two-tier result store:
//
//  1. an in-memory simcache.Cache — singleflight, so identical in-flight
//     requests coalesce onto one computation (the coalesced counter
//     makes this observable);
//  2. an optional persistent internal/store directory shared between
//     processes, probed before simulating and written after.
//
// Only on a miss in both tiers does the request reach the bounded
// report.Pool and actually simulate, honoring the request context:
// cancellation and deadlines propagate into the cycle loop via
// report.Simulate, and abandoned runs are evicted from the cache so a
// retry recomputes.
//
// The invariant the tiers must preserve: a served RunRecord's bytes are
// identical no matter which tier answered. Provenance lives in the
// X-Tvpd-Source response header and the /v1/status counters, never in
// the record body.
package serve

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/report"
	"repro/internal/simcache"
	"repro/internal/stats"
	"repro/internal/store"
)

// Source labels, returned in the X-Tvpd-Source header: which tier
// answered the request.
const (
	SourceMemory    = "memory"    // in-memory cache hit
	SourceDisk      = "disk"      // persistent store hit
	SourceComputed  = "computed"  // simulated by this request
	SourceCoalesced = "coalesced" // joined another request's in-flight computation
)

// Config sizes a Server.
type Config struct {
	// Workers is the simulation pool size (<=0: GOMAXPROCS).
	Workers int
	// Queue bounds the pool's pending-job queue (0: hand-off only).
	Queue int
	// Store is the persistent result tier; nil runs memory-only.
	Store *store.Store
}

// Counters is a snapshot of the per-request resolution outcomes.
type Counters struct {
	MemHits   uint64 `json:"mem_hits"`
	DiskHits  uint64 `json:"disk_hits"`
	Simulated uint64 `json:"simulated"`
	Coalesced uint64 `json:"coalesced"`
	Failed    uint64 `json:"failed"`
}

// Server resolves simulation points through the two-tier store. It is
// safe for concurrent use; Close drains the simulation pool.
type Server struct {
	pool  *report.Pool
	store *store.Store
	cache *simcache.Cache[simcache.RunKey, stats.Sim]
	start time.Time

	inflight  atomic.Int64
	memHits   atomic.Uint64
	diskHits  atomic.Uint64
	simulated atomic.Uint64
	coalesced atomic.Uint64
	failed    atomic.Uint64

	// testHookBeforeSimulate, when set by an in-package test, runs in the
	// singleflight leader after both store tiers missed and before the
	// simulation is submitted — the window the coalescing battle tests
	// hold open to line up joiners deterministically.
	testHookBeforeSimulate func(simcache.RunKey)
}

// New builds a Server over a fresh in-memory cache and pool.
func New(cfg Config) *Server {
	return &Server{
		pool:  report.NewPool(cfg.Workers, cfg.Queue),
		store: cfg.Store,
		cache: simcache.New[simcache.RunKey, stats.Sim](),
		start: now(),
	}
}

// Close drains the simulation pool: jobs already accepted finish,
// further submissions fail. Safe to call more than once.
func (s *Server) Close() { s.pool.Close() }

// Counters returns a snapshot of the resolution counters.
func (s *Server) Counters() Counters {
	return Counters{
		MemHits:   s.memHits.Load(),
		DiskHits:  s.diskHits.Load(),
		Simulated: s.simulated.Load(),
		Coalesced: s.coalesced.Load(),
		Failed:    s.failed.Load(),
	}
}

// Inflight returns the number of requests currently resolving (all
// sources, including joiners waiting on a leader).
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// Resolve answers one simulation point through the tiers, returning the
// counters and the source tier that produced them. Each call moves
// exactly one counter: the one named by its source, or failed on error.
// The context bounds the whole resolution: a deadline or cancellation
// aborts pool admission and stops an in-progress run from inside the
// cycle loop, and the resulting error is never memoized (simcache treats
// context errors as transient), so a retry recomputes.
func (s *Server) Resolve(ctx context.Context, p report.Point) (stats.Sim, string, error) {
	k := p.Key()
	if st, ok := s.cache.Get(k); ok {
		s.memHits.Add(1)
		return st, SourceMemory, nil
	}

	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	// source is written only by the singleflight leader (inside fn) and
	// read after Do returns on the same goroutine. A call whose fn did not
	// run keeps the default: it joined another call's computation, in
	// flight or just finished.
	source := SourceCoalesced
	st, err := s.cache.Do(k, func() (stats.Sim, error) {
		if s.store != nil {
			if st, ok := s.store.Get(k); ok {
				s.diskHits.Add(1)
				source = SourceDisk
				return st, nil
			}
		}
		if s.testHookBeforeSimulate != nil {
			s.testHookBeforeSimulate(k)
		}
		var (
			res  stats.Sim
			rerr error
			done = make(chan struct{})
		)
		if err := s.pool.Submit(ctx, func() {
			defer close(done)
			res, rerr = report.Simulate(ctx, p)
		}); err != nil {
			return stats.Sim{}, err
		}
		<-done
		if rerr != nil {
			return stats.Sim{}, rerr
		}
		source = SourceComputed
		s.simulated.Add(1)
		if s.store != nil {
			// Best effort: a full disk must not fail the request — the
			// result is still correct, it just won't be durable.
			_ = s.store.Put(k, res)
		}
		return res, nil
	})
	if err != nil {
		s.failed.Add(1)
		return stats.Sim{}, "", err
	}
	if source == SourceCoalesced {
		s.coalesced.Add(1)
	}
	return st, source, nil
}
