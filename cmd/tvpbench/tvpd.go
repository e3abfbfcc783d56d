package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
)

const (
	// sloMS is the latency limit slo_miss_ratio counts against.
	sloMS = 250
	// reqHeader tells the server-side timer which request it is timing
	// and, in traced phases, the client span to hang its span under.
	reqHeader = "X-Tvpbench-Req"
	// clientConns is how many connections (and sending goroutines) the
	// load generator uses.
	clientConns = 2
	// storeSideOps is how many Gets and Puts the store side pass times.
	storeSideOps = 200
	// computedChecks caps how many computed answers are re-simulated.
	computedChecks = 16
)

// liveServer is a tvpd server behind a real loopback http.Server.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startServer opens the store, starts the server behind the handler
// timer and waits until it answers /v1/status. It returns the store.Open
// time in milliseconds.
func startServer(storeDir string, t *handlerTimer, client *http.Client) (*liveServer, float64, error) {
	start := time.Now()
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, 0, err
	}
	openMS := sinceMS(start)
	srv := serve.New(serve.Config{Workers: 2, Queue: 64, Store: st})
	t.next = srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	l := &liveServer{srv: srv, hs: &http.Server{Handler: t}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	resp, err := client.Get(l.url + "/v1/status")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status endpoint answered %s", resp.Status)
		}
	}
	if err != nil {
		return nil, 0, errors.Join(err, l.stop())
	}
	return l, openMS, nil
}

// stop shuts the HTTP server down, waits for it to exit, and drains the
// simulation pool.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	l.srv.Close()
	return err
}

// handlerTimer wraps Server.Handler() and times each scheduled request
// on the server side, recording a serve.handler span under the client's
// span in traced phases. With at most clientConns requests in flight and
// as many pool workers, no request queues inside the server, so the
// handler time of a computed answer is its service time.
type handlerTimer struct {
	next http.Handler
	tr   *tracer
	ns   []atomic.Int64 // per scheduled request; written by server goroutines
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req, parent int64
	fmt.Sscanf(r.Header.Get(reqHeader), "%d/%d", &req, &parent)
	start := time.Now()
	sp := t.tr.beginAt("serve.handler", parent, req, t.tr.at(start))
	t.next.ServeHTTP(w, r)
	end := time.Now()
	t.tr.endAt(sp, t.tr.at(end))
	if req >= 1 && int(req) <= len(t.ns) {
		t.ns[req-1].Store(int64(end.Sub(start)))
	}
}

// reply is one answered request.
type reply struct {
	lat, late float64 // ms from the request's due time
	handler   float64 // ms inside the server's handler
	status    int
	source    string
	body      []byte
	err       error
}

func post(client *http.Client, url string, body []byte, req string) reply {
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	hr.Header.Set("Content-Type", "application/json")
	if req != "" {
		hr.Header.Set(reqHeader, req)
	}
	resp, err := client.Do(hr)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, source: resp.Header.Get("X-Tvpd-Source"), body: data, err: err}
}

// openLoop sends each request at its due time from clientConns senders
// and times it from the due time, so a stalled server also delays the
// requests queued behind it.
func (b *bench) openLoop(client *http.Client, url string, reqs []tvpdRequest) []reply {
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		bodies[i] = r.Point.request()
	}
	out := make([]reply, len(reqs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for range clientConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = b.send(client, url, bodies[i], start.Add(reqs[i].Due), int64(i+1))
			}
		}()
	}
	for i, r := range reqs {
		time.Sleep(time.Until(start.Add(r.Due)))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

func (b *bench) send(client *http.Client, url string, body []byte, due time.Time, req int64) reply {
	tr := b.tr
	picked := time.Now()
	op := tr.beginAt(rootName, 0, req, tr.at(due))
	tr.endAt(tr.beginAt("loadgen.wait", op.ID, req, tr.at(due)), tr.at(picked))
	hc := tr.begin("http.client", op.ID, req)
	r := post(client, url, body, fmt.Sprintf("%d/%d", req, hc.ID))
	tr.end(hc)
	done := time.Now()
	tr.endAt(op, tr.at(done))
	r.lat = float64(done.Sub(due).Nanoseconds()) / 1e6
	r.late = float64(picked.Sub(due).Nanoseconds()) / 1e6
	return r
}

// tvpdRun is what one phase measured.
type tvpdRun struct {
	setup           []float64 // seconds per set-up repetition
	openMS, buildMS []float64
	replies         []reply
	before, after   runtimeSample
}

// tvpdPhase serves the schedule from a fresh copy of the fixture store:
// set-up repeated setupReps times (program builds, store.Open, server
// ready), the untimed warm-up requests, then the open-loop schedule.
func (b *bench) tvpdPhase(s tvpdSchedule, programs []string, fixtureDir, dir string) (run *tvpdRun, err error) {
	if err := copyTree(fixtureDir, dir); err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	timer := &handlerTimer{tr: b.tr, ns: make([]atomic.Int64, len(s.Reqs))}
	var live *liveServer
	defer func() {
		if live != nil {
			err = errors.Join(err, live.stop())
		}
	}()
	run = &tvpdRun{}
	for range setupReps {
		if live != nil {
			err := live.stop()
			live = nil
			if err != nil {
				return nil, err
			}
			transport.CloseIdleConnections()
		}
		runtime.GC() // as in medianSetup
		start := time.Now()
		if err := buildPrograms(programs); err != nil {
			return nil, err
		}
		run.buildMS = append(run.buildMS, sinceMS(start))
		var openMS float64
		if live, openMS, err = startServer(dir, timer, client); err != nil {
			return nil, err
		}
		run.setup = append(run.setup, time.Since(start).Seconds())
		run.openMS = append(run.openMS, openMS)
	}
	for _, p := range s.Warmup {
		if r := post(client, live.url, p.request(), ""); r.err != nil || r.status != http.StatusOK {
			return nil, errors.Join(fmt.Errorf("warm-up request %s: status %d", p.id(), r.status), r.err)
		}
	}
	run.before = readRuntime()
	run.replies = b.openLoop(client, live.url, s.Reqs)
	run.after = readRuntime()
	for i := range run.replies {
		run.replies[i].handler = float64(timer.ns[i].Load()) / 1e6
	}
	return run, nil
}

// checkReplies checks every answer: status 200, a known tier, a record
// for the requested point, and the same bytes for a point from every tier
// and in every phase (digests holds what earlier answers returned).
func (b *bench) checkReplies(reqs []tvpdRequest, replies []reply) {
	for i, r := range replies {
		p := reqs[i].Point
		ok := r.err == nil && r.status == http.StatusOK
		b.out.check(ok, "%s: status %d, error %v", p.id(), r.status, r.err)
		if !ok {
			continue
		}
		rec, err := obs.DecodeRunRecord(r.body)
		b.out.check(err == nil && rec.Workload == p.Workload && rec.Warmup == p.Warmup && rec.Insts == p.Insts && slices.Contains(tiers, r.source),
			"%s: the %q answer is not a record of the point (%v)", p.id(), r.source, err)
		d := digest(r.body)
		prev, seen := b.out.digests[p.id()]
		b.out.check(!seen || prev == d, "%s: the %s answer differs from an earlier answer", p.id(), r.source)
		b.out.digests[p.id()] = d
	}
}

// checkComputed re-simulates a seeded one-in-eight sample of the computed
// answers with report.Simulate and compares the record bytes.
func (b *bench) checkComputed(reqs []tvpdRequest, replies []reply) error {
	var idx []int
	for i, r := range replies {
		if reqs[i].Kind == kindNew && r.source == serve.SourceComputed {
			idx = append(idx, i)
		}
	}
	perm := perm(newRNG(b.opt.seed, "tvpd-check"), len(idx))
	for _, j := range perm[:min(len(idx), max(1, min(computedChecks, len(idx)/8)))] {
		i := idx[j]
		rp := reqs[i].Point.reportPoint()
		st, err := report.Simulate(context.Background(), rp)
		if err != nil {
			return err
		}
		want, err := json.Marshal(obs.NewRunRecord(obs.RunMeta{Workload: rp.Workload, Cfg: rp.Cfg, Warmup: rp.Warmup, Insts: rp.Insts}, st))
		if err != nil {
			return err
		}
		b.out.check(bytes.Equal(append(want, '\n'), replies[i].body), "%s: served record differs from report.Simulate", reqs[i].Point.id())
	}
	return nil
}

// runTVPD drives tvpd-mixed: open-loop requests against a daemon whose
// store an earlier server filled.
func runTVPD(b *bench) error {
	s := newTVPDSchedule(b.opt.seed, b.phaseSeconds().Seconds(), b.opt.scale)
	if err := os.MkdirAll(b.opt.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.opt.workDir, "tvpd-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	programs := scheduleWorkloads(s)

	fixtureDir := filepath.Join(dir, "fixture")
	if err := writeFixture(fixtureDir, s.Fixture); err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	run, err := b.tvpdPhase(s, programs, fixtureDir, filepath.Join(dir, "untraced"))
	if err != nil {
		return err
	}
	b.checkReplies(s.Reqs, run.replies)
	if err := b.checkComputed(s.Reqs, run.replies); err != nil {
		return err
	}

	n := len(run.replies)
	lat, late, handler, overhead := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	byTier := map[string][]float64{}
	var computedMIPS []float64
	var missed float64
	for i, r := range run.replies {
		lat[i], late[i], handler[i] = r.lat, r.late, r.handler
		overhead[i] = r.lat - r.late - r.handler
		byTier[r.source] = append(byTier[r.source], r.lat)
		if r.source == serve.SourceComputed {
			p := s.Reqs[i].Point
			computedMIPS = append(computedMIPS, float64(p.Warmup+p.Insts)/r.handler/1e3)
		}
		if r.err != nil || r.status != http.StatusOK || r.lat > sloMS {
			missed++
		}
	}
	p50 := median(lat)
	b.addSetup(run.setup)
	b.out.addE2E("op_p50_ms", p50, "ms")
	b.out.addE2E("sim_mips", median(computedMIPS), "MIPS")
	b.out.addTail("op_p95_ms", lat, 95, "ms")
	b.out.addTail("op_p99_ms", lat, 99, "ms")
	b.out.addInfo("slo_miss_ratio", ratio(missed, float64(len(lat))), "frac")
	b.out.addInfo("requests", float64(len(lat)), "count")
	b.out.addTail("loadgen.late_p95_ms", late, 95, "ms")
	for _, t := range tiers {
		b.out.addInfo("serve."+t+"_requests", float64(len(byTier[t])), "count")
		b.out.addTail("serve."+t+"_p90_ms", byTier[t], 90, "ms")
		b.out.samples["req_ms."+t] = byTier[t]
	}
	b.out.samples["req_ms"] = lat
	b.out.samples["computed_mips"] = computedMIPS
	b.out.samples["late_ms"] = late
	if !b.opt.traced {
		return nil
	}

	b.tr = newTracer()
	trun, err := b.tvpdPhase(s, programs, fixtureDir, filepath.Join(dir, "traced"))
	if err != nil {
		return err
	}
	b.checkReplies(s.Reqs, trun.replies)
	spans := b.tr.snapshot()
	tlat := make([]float64, len(trun.replies))
	var tcomputed []point
	var tcomputedMS float64
	for i, r := range trun.replies {
		tlat[i] = r.lat
		if r.source == serve.SourceComputed {
			tcomputed = append(tcomputed, s.Reqs[i].Point)
			tcomputedMS += r.lat
		}
	}
	b.out.samples["traced_req_ms"] = tlat

	b.out.addRuntime(run.before, run.after, len(run.replies))
	b.out.addLayer("workload.program_ms", median(run.buildMS), "ms")
	b.out.addLayer("store.open_ms", median(run.openMS), "ms")
	for _, t := range tiers {
		b.out.addLayer("serve."+t+"_p50_ms", median(byTier[t]), "ms")
		b.out.addLayer("serve.tier_frac."+t, ratio(float64(len(byTier[t])), float64(len(lat))), "frac")
	}
	b.out.addLayer("loadgen.late_p50_ms", median(late), "ms")
	b.out.addLayer("serve.handler_p50_ms", median(handler), "ms")
	b.out.addLayer("http.overhead_p50_ms", median(overhead), "ms")

	if err := b.out.storeSide(fixtureDir, filepath.Join(dir, "scratch"), s.Fixture); err != nil {
		return err
	}
	emuMS, err := b.out.emuSide(tcomputed)
	if err != nil {
		return err
	}
	b.out.addLayer("emu.share", ratio(emuMS, tcomputedMS), "frac")
	var fresh []point
	for _, r := range s.Reqs {
		if r.Kind == kindNew {
			fresh = append(fresh, r.Point)
		}
	}
	if err := b.pricePoints(fresh); err != nil {
		return err
	}
	b.out.addTraceMetrics(spans, p50, median(tlat))
	return nil
}

// scheduleWorkloads lists the workloads the schedule asks about.
func scheduleWorkloads(s tvpdSchedule) []string {
	seen := map[string]bool{}
	var names []string
	add := func(p point) {
		if !seen[p.Workload] {
			seen[p.Workload] = true
			names = append(names, p.Workload)
		}
	}
	for _, p := range s.Warmup {
		add(p)
	}
	for _, p := range s.Fixture {
		add(p)
	}
	for _, r := range s.Reqs {
		add(r.Point)
	}
	sort.Strings(names)
	return names
}

// writeFixture has an earlier server resolve the points into a store at
// dir, as a daemon that ran before this one would have.
func writeFixture(dir string, pts []point) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{Workers: 2, Store: st})
	defer srv.Close()
	jobs := make(chan point)
	errs := make([]error, clientConns)
	var wg sync.WaitGroup
	for w := range clientConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range jobs {
				if _, _, err := srv.Resolve(context.Background(), p.reportPoint()); err != nil {
					errs[w] = errors.Join(errs[w], fmt.Errorf("%s: %w", p.id(), err))
				}
			}
		}()
	}
	for _, p := range pts {
		jobs <- p
	}
	close(jobs)
	wg.Wait()
	return errors.Join(errs...)
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}

// storeSide times the store on its own after the timed phase: Gets of
// the fixture records through a second handle, and Puts of fresh keys
// into a scratch store. Put is synchronous on tvpd's computed path.
func (o *outcome) storeSide(fixtureDir, scratchDir string, fixture []point) error {
	if len(fixture) == 0 {
		return nil
	}
	st, err := store.Open(fixtureDir)
	if err != nil {
		return err
	}
	scratch, err := store.Open(scratchDir)
	if err != nil {
		return err
	}
	var gets, puts []float64
	var got stats.Sim
	for i := range storeSideOps {
		k := fixture[i%len(fixture)].reportPoint().Key()
		start := time.Now()
		v, ok := st.Get(k)
		gets = append(gets, sinceMS(start)*1e3)
		o.check(ok, "store: fixture record %v missing", k)
		got = v
	}
	for i := range storeSideOps {
		k := fixture[i%len(fixture)].reportPoint().Key()
		k.Warmup += uint64(i+1) << 32 // a key no run has written
		start := time.Now()
		if err := scratch.Put(k, got); err != nil {
			return err
		}
		puts = append(puts, sinceMS(start)*1e3)
	}
	var bytes, files float64
	err = filepath.WalkDir(fixtureDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += float64(info.Size())
		files++
		return nil
	})
	if err != nil {
		return err
	}
	o.addLayer("store.get_p50_us", median(gets), "us")
	o.addLayer("store.put_p50_us", median(puts), "us")
	for _, m := range []struct {
		name string
		xs   []float64
	}{{"store.get_p95_us", gets}, {"store.put_p95_us", puts}} {
		v, err := percentile(m.xs, 95)
		if err != nil {
			return err
		}
		o.addLayer(m.name, v, "us")
	}
	o.addLayer("store.record_bytes", ratio(bytes, files), "bytes")
	return nil
}
