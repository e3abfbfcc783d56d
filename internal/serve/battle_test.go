package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/simcache"
	"repro/internal/store"
)

// TestCoalescingExactlyOneSimulation: N concurrent requests for the
// identical point must run exactly one simulation — one leader computes,
// every other request joins its in-flight result. The test hook holds
// the leader open between the store probe and the simulation submit so
// all joiners are provably lined up before the computation runs.
func TestCoalescingExactlyOneSimulation(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, st)

	release := make(chan struct{})
	s.testHookBeforeSimulate = func(simcache.RunKey) { <-release }

	var wg sync.WaitGroup
	sources := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/run", runBody(testWorkload(t, 0), 20000))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d", resp.StatusCode)
			}
			sources <- resp.Header.Get("X-Tvpd-Source")
			readBody(t, resp)
		}()
	}

	// Wait until all n requests are resolving (leader blocked in the
	// hook, joiners parked on its singleflight entry), then let the one
	// simulation run.
	for i := 0; s.Inflight() < n; i++ {
		if i > 10000 {
			t.Fatalf("only %d of %d requests in flight", s.Inflight(), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(sources)

	bySource := map[string]int{}
	for src := range sources {
		bySource[src]++
	}
	if bySource[SourceComputed] != 1 || bySource[SourceCoalesced] != n-1 {
		t.Fatalf("sources = %v, want 1 %s + %d %s", bySource, SourceComputed, n-1, SourceCoalesced)
	}
	c := s.Counters()
	if c.Simulated != 1 {
		t.Fatalf("simulated = %d, want exactly 1", c.Simulated)
	}
	if c.Coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", c.Coalesced, n-1)
	}
	if sc := st.Counters(); sc.Puts != 1 {
		t.Fatalf("store writes = %d, want exactly 1", sc.Puts)
	}
}

// TestDistinctPointsSaturatePool: more concurrent distinct points than
// workers + queue slots must all complete — pool admission blocks with
// backpressure instead of rejecting or deadlocking — and each distinct
// point simulates exactly once.
func TestDistinctPointsSaturatePool(t *testing.T) {
	const n = 8
	s, ts := newTestServer(t, nil) // Workers: 2, Queue: 4 < n

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct insts → distinct RunKeys: nothing coalesces.
			body := fmt.Sprintf(`{"workload":%q,"vp":"off","insts":%d}`, testWorkload(t, 0), 10000+i)
			resp := postJSON(t, ts.URL+"/v1/run", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("point %d: status = %d", i, resp.StatusCode)
			}
			readBody(t, resp)
		}(i)
	}
	wg.Wait()

	c := s.Counters()
	if c.Simulated != n || c.Coalesced != 0 || c.Failed != 0 {
		t.Fatalf("counters = %+v, want %d simulated", c, n)
	}
	if s.Inflight() != 0 {
		t.Fatalf("inflight = %d after drain", s.Inflight())
	}
}

// TestResolveCountsEachAnswerOnce: many goroutines resolve a few small
// points, one of which fails, concurrently. Every call must move exactly
// one counter, the one its returned source names (failed on error), so
// the tallies of the returned sources equal Counters() and sum to the
// number of calls — including calls that join a leader which finishes
// between their memory peek and their singleflight join, and calls that
// join a failed leader.
func TestResolveCountsEachAnswerOnce(t *testing.T) {
	const goroutines, rounds = 16, 6
	s := New(Config{Workers: 2})
	defer s.Close()
	w := testWorkload(t, 0)
	pts := []report.Point{
		{Workload: w, Cfg: config.Default(), Warmup: 500, Insts: 2000},
		{Workload: w, Cfg: config.Default(), Warmup: 500, Insts: 3000},
		{Workload: w, Cfg: config.Default().WithVP(config.TVP), Warmup: 500, Insts: 2000},
		{Workload: "no_such_workload", Cfg: config.Default(), Insts: 2000},
	}

	const failed = "failed"
	var mu sync.Mutex
	tally := map[string]uint64{}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p := pts[(g+r)%len(pts)]
				_, src, err := s.Resolve(context.Background(), p)
				if err != nil {
					if p.Workload == w {
						t.Errorf("%+v: %v", p, err)
					}
					src = failed
				}
				mu.Lock()
				tally[src]++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	c := s.Counters()
	counted := map[string]uint64{
		SourceMemory:    c.MemHits,
		SourceDisk:      c.DiskHits,
		SourceComputed:  c.Simulated,
		SourceCoalesced: c.Coalesced,
		failed:          c.Failed,
	}
	var sum uint64
	for src, n := range counted {
		if tally[src] != n {
			t.Errorf("%s: %d calls returned it, counter says %d", src, tally[src], n)
		}
		sum += n
	}
	if sum != goroutines*rounds {
		t.Errorf("counters %+v sum to %d, want one per call (%d)", c, sum, goroutines*rounds)
	}
	if c.Simulated != uint64(len(pts)-1) {
		t.Errorf("simulated = %d, want one per good point (%d)", c.Simulated, len(pts)-1)
	}
}
