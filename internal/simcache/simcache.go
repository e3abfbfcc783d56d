// Package simcache provides a content-addressed, concurrency-safe
// memoization layer for simulation results. The experiment harness
// (internal/report, cmd/tvpreport) regenerates every figure of the paper
// from the same small set of (workload, machine-config) points; caching
// each point by its content key means the full E1–E14 sweep never
// simulates the same point twice, and singleflight deduplication means
// concurrent identical requests share one execution instead of racing to
// compute the same result.
//
// The generic Cache is usable for any memoized computation (built
// programs, functional histograms); RunKey is the canonical key for
// timing runs.
package simcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// RunKey identifies one timing simulation: the timing-model version, the
// workload, the canonical machine-configuration fingerprint
// (config.Machine.Fingerprint), and the run length. Two runs with equal
// RunKeys produce bit-identical stats, so the result of one can stand in
// for the other. The JSON form is the persistent store's on-disk key.
type RunKey struct {
	// Model is the timing-model version that produced the result
	// (report.ModelVersion), so a result outlives no timing change.
	Model    int    `json:"model"`
	Workload string `json:"workload"`
	// ConfigFP is the canonical content fingerprint of the machine
	// configuration (config.Machine.Fingerprint).
	ConfigFP string `json:"config_fp"`
	Warmup   uint64 `json:"warmup"`
	Insts    uint64 `json:"insts"`
}

// entry is one in-flight or completed computation.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache memoizes a keyed computation with singleflight semantics: the
// first caller of a key runs the function; concurrent callers of the same
// key block until it finishes and share the result. Values and
// deterministic errors are cached (simulations are deterministic, so such
// an error is as reproducible as a result); context cancellation and
// deadline errors are transient and evicted so a retry recomputes.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	m      map[K]*entry[V]
	hits   atomic.Uint64
	misses atomic.Uint64
}

// New returns an empty cache.
func New[K comparable, V any]() *Cache[K, V] {
	return &Cache[K, V]{m: make(map[K]*entry[V])}
}

// Do returns the cached result for k, running fn exactly once per key to
// produce it. Concurrent callers with the same key wait for the single
// in-flight computation. If fn panics, the panic propagates to the
// first caller, waiters receive an error, and the key is forgotten so a
// later call may retry.
//
// Deterministic errors are cached like values (a reproducible simulation
// fails reproducibly), but context cancellation and deadline errors are
// transient — they describe the caller, not the computation — so the key
// is forgotten and a later call recomputes. Without that eviction a
// single canceled request would poison its point for the cache's
// lifetime (the original tvpd daemon bug).
func (c *Cache[K, V]) Do(k K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.done
		return e.val, e.err
	}
	e := &entry[V]{done: make(chan struct{})}
	c.m[k] = e
	c.mu.Unlock()
	c.misses.Add(1)

	panicked := true
	defer func() {
		if panicked {
			c.mu.Lock()
			delete(c.m, k)
			c.mu.Unlock()
			e.err = fmt.Errorf("simcache: computation for %v panicked", k)
			close(e.done)
		}
	}()
	e.val, e.err = fn()
	panicked = false
	if transientErr(e.err) {
		c.mu.Lock()
		if c.m[k] == e {
			delete(c.m, k)
		}
		c.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
}

// transientErr reports whether err reflects the caller's context rather
// than the computation itself, and therefore must not be memoized.
func transientErr(err error) bool {
	return err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// Get returns the completed result for k without computing anything. It
// reports false if the key is absent or still in flight.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	e, ok := c.m[k]
	c.mu.Unlock()
	if !ok {
		var zero V
		return zero, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			var zero V
			return zero, false
		}
		return e.val, true
	default:
		var zero V
		return zero, false
	}
}

// Len returns the number of cached (or in-flight) keys.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Counters returns the cumulative hit and miss counts. A hit is a Do call
// that found an existing entry (including in-flight singleflight joins).
func (c *Cache[K, V]) Counters() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Reset discards every entry and zeroes the counters. In-flight
// computations complete but their results are not retained.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.m = make(map[K]*entry[V])
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}
