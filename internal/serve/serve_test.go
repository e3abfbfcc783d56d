package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

// testWorkload is a real suite workload, so served records are genuine
// simulation results.
func testWorkload(t *testing.T, i int) string {
	t.Helper()
	names := workload.Names()
	if len(names) <= i {
		t.Fatalf("suite has only %d workloads", len(names))
	}
	return names[i]
}

// newTestServer builds a Server (memory-only unless st is non-nil) and
// an httptest front for it, torn down with the test.
func newTestServer(t *testing.T, st *store.Store) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, Queue: 4, Store: st})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func runBody(workload string, insts uint64) string {
	return fmt.Sprintf(`{"workload":%q,"vp":"tvp","spsr":true,"warmup":1000,"insts":%d}`, workload, insts)
}

func decodeError(t *testing.T, data []byte) apiError {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body %q not JSON: %v", data, err)
	}
	if e.Schema != ErrorSchema {
		t.Fatalf("error schema = %q, want %s", e.Schema, ErrorSchema)
	}
	if e.Error == "" {
		t.Fatal("error body has empty message")
	}
	return e
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	wl := testWorkload(t, 0)

	resp := postJSON(t, ts.URL+"/v1/run", runBody(wl, 20000))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get("X-Tvpd-Source"); got != SourceComputed {
		t.Fatalf("first request source = %q, want %s", got, SourceComputed)
	}
	first := readBody(t, resp)

	// Golden round-trip: the served bytes must decode through the
	// canonical RunRecord decoder and carry real results.
	rec, err := obs.DecodeRunRecord(first)
	if err != nil {
		t.Fatalf("DecodeRunRecord(served bytes): %v", err)
	}
	if rec.Schema != obs.RunSchema {
		t.Fatalf("schema = %q, want %s", rec.Schema, obs.RunSchema)
	}
	if rec.Workload != wl || rec.Insts != 20000 || rec.Warmup != 1000 {
		t.Fatalf("record meta = %s/%d/%d", rec.Workload, rec.Warmup, rec.Insts)
	}
	if rec.ConfigFP == "" || rec.VPMode != "Tar. VP" || !rec.SpSR {
		t.Fatalf("record config identity = %q/%q/%v", rec.ConfigFP, rec.VPMode, rec.SpSR)
	}
	if rec.Totals.Cycles == 0 || rec.Totals.ArchInsts < 19000 || rec.Summary.IPC <= 0 {
		t.Fatalf("record totals empty: cycles=%d insts=%d ipc=%v",
			rec.Totals.Cycles, rec.Totals.ArchInsts, rec.Summary.IPC)
	}
	if rec.Cached {
		t.Fatal("served record marked Cached; provenance belongs in the header")
	}

	// Second identical request: memory tier, byte-identical record.
	resp = postJSON(t, ts.URL+"/v1/run", runBody(wl, 20000))
	if got := resp.Header.Get("X-Tvpd-Source"); got != SourceMemory {
		t.Fatalf("second request source = %q, want %s", got, SourceMemory)
	}
	if second := readBody(t, resp); !bytes.Equal(first, second) {
		t.Fatalf("cached record bytes differ from computed:\n%s\n%s", first, second)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := postJSON(t, ts.URL+"/v1/run", `{"workload":"no-such-kernel","insts":1000}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	e := decodeError(t, readBody(t, resp))
	if e.Workload != "no-such-kernel" || !strings.Contains(e.Error, "unknown workload") {
		t.Fatalf("error = %+v", e)
	}
}

func TestRunMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	wl := testWorkload(t, 0)
	cases := []struct {
		name, path, body string
		code             int
	}{
		{"bad json", "/v1/run", `{"workload":`, http.StatusBadRequest},
		{"unknown field", "/v1/run", `{"workload":"` + wl + `","insts":1000,"bogus":1}`, http.StatusBadRequest},
		{"bad vp mode", "/v1/run", `{"workload":"` + wl + `","vp":"evp","insts":1000}`, http.StatusBadRequest},
		{"zero insts", "/v1/run", `{"workload":"` + wl + `","vp":"tvp"}`, http.StatusBadRequest},
		// Removed run knobs are unknown fields, rejected by the decoder.
		{"nine_bit_idiom is an unknown field", "/v1/run", `{"workload":"` + wl + `","vp":"mvp","nine_bit_idiom":true,"insts":1000}`, http.StatusBadRequest},
		{"fast_warmup is an unknown field", "/v1/run", `{"workload":"` + wl + `","insts":1000,"fast_warmup":true}`, http.StatusBadRequest},
		{"fast_warmup is an unknown sweep field", "/v1/sweep", `{"workloads":["` + wl + `"],"insts":1000,"fast_warmup":true}`, http.StatusBadRequest},
		{"insts over cap", "/v1/run", fmt.Sprintf(`{"workload":%q,"insts":%d}`, wl, maxPointInsts+1), http.StatusBadRequest},
		{"warmup plus insts over cap", "/v1/run", fmt.Sprintf(`{"workload":%q,"warmup":%d,"insts":%d}`, wl, maxPointInsts/2+1, maxPointInsts/2), http.StatusBadRequest},
		{"warmup overflows", "/v1/run", fmt.Sprintf(`{"workload":%q,"warmup":%d,"insts":1000}`, wl, uint64(1<<64-1)), http.StatusBadRequest},
		{"oversized body", "/v1/run", `{"workload":"` + wl + `","insts":1000,"vp":"` + strings.Repeat(" ", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
		// A negative timeout would mean no deadline, and one past
		// maxTimeoutMS would overflow time.Duration into a deadline
		// that has already passed.
		{"negative timeout_ms", "/v1/run", `{"workload":"` + wl + `","insts":1000,"timeout_ms":-1}`, http.StatusBadRequest},
		{"timeout_ms overflows a duration", "/v1/run", fmt.Sprintf(`{"workload":%q,"insts":1000,"timeout_ms":%d}`, wl, maxTimeoutMS+1), http.StatusBadRequest},
		{"negative sweep timeout_ms", "/v1/sweep", `{"workloads":["` + wl + `"],"insts":1000,"timeout_ms":-1}`, http.StatusBadRequest},
		{"sweep timeout_ms overflows a duration", "/v1/sweep", fmt.Sprintf(`{"workloads":[%q],"insts":1000,"timeout_ms":%d}`, wl, maxTimeoutMS+1), http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+c.path, c.body)
			body := readBody(t, resp)
			if resp.StatusCode != c.code {
				t.Fatalf("status = %d, want %d (body %.200s)", resp.StatusCode, c.code, body)
			}
			e := decodeError(t, body)
			if strings.Contains(c.name, "unknown") && !strings.Contains(e.Error, "unknown field") {
				t.Fatalf("error = %q, want an unknown-field rejection", e.Error)
			}
		})
	}
}

func TestSweepEndpoint(t *testing.T) {
	s, ts := newTestServer(t, nil)
	w0, w1 := testWorkload(t, 0), testWorkload(t, 1)
	body := fmt.Sprintf(`{"workloads":[%q,%q],"vp_modes":["off","tvp"],"warmup":1000,"insts":20000}`, w0, w1)
	resp := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, readBody(t, resp))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	defer resp.Body.Close()

	// NDJSON framing: one complete RunRecord per line, in grid order.
	want := []struct{ wl, mode string }{
		{w0, "Baseline"}, {w0, "Tar. VP"}, {w1, "Baseline"}, {w1, "Tar. VP"},
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var got int
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			t.Fatal("blank NDJSON line")
		}
		rec, err := obs.DecodeRunRecord(line)
		if err != nil {
			t.Fatalf("line %d: %v", got, err)
		}
		if got >= len(want) {
			t.Fatalf("more than %d lines", len(want))
		}
		if rec.Workload != want[got].wl || rec.VPMode != want[got].mode {
			t.Fatalf("line %d = %s/%s, want %s/%s", got, rec.Workload, rec.VPMode, want[got].wl, want[got].mode)
		}
		got++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Fatalf("%d NDJSON lines, want %d", got, len(want))
	}
	if c := s.Counters(); c.Simulated != 4 {
		t.Fatalf("simulated = %d, want 4", c.Simulated)
	}
}

func TestSweepRejectsBadGrid(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := postJSON(t, ts.URL+"/v1/sweep", `{"workloads":["no-such-kernel"],"insts":1000}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload in grid: status = %d, want 404", resp.StatusCode)
	}
	decodeError(t, readBody(t, resp))

	resp = postJSON(t, ts.URL+"/v1/sweep", `{"vp_modes":["tvp"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero insts: status = %d, want 400", resp.StatusCode)
	}
	decodeError(t, readBody(t, resp))

	// Repeated vp_modes entries multiply the grid: one past the cell cap
	// is refused before any point resolves.
	modes := `"off"` + strings.Repeat(`,"off"`, maxSweepCells)
	resp = postJSON(t, ts.URL+"/v1/sweep", `{"workloads":["`+testWorkload(t, 0)+`"],"vp_modes":[`+modes+`],"insts":1000}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("grid over the cell cap: status = %d, want 400", resp.StatusCode)
	}
	decodeError(t, readBody(t, resp))

	resp = postJSON(t, ts.URL+"/v1/sweep", `{"insts":1000,"vp_modes":["`+strings.Repeat("x", maxBodyBytes)+`"]}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413", resp.StatusCode)
	}
	decodeError(t, readBody(t, resp))
}

func TestStatusEndpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, st)
	wl := testWorkload(t, 0)

	// One computed point, then a memory hit on the same point.
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/run", runBody(wl, 20000))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
		readBody(t, resp)
	}

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rec StatusRecord
	if err := json.Unmarshal(readBody(t, resp), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Schema != StatusSchema || !rec.Healthy {
		t.Fatalf("status record = %+v", rec)
	}
	if rec.Workers != 2 || rec.QueueCap != 4 || rec.Inflight != 0 {
		t.Fatalf("pool shape = workers %d queue %d inflight %d", rec.Workers, rec.QueueCap, rec.Inflight)
	}
	if rec.Requests.Simulated != 1 || rec.Requests.MemHits != 1 || rec.Requests.Failed != 0 {
		t.Fatalf("request counters = %+v", rec.Requests)
	}
	if rec.Cache.Len != 1 {
		t.Fatalf("cache len = %d", rec.Cache.Len)
	}
	if rec.Store == nil || rec.Store.Dir != dir || rec.Store.Puts != 1 || rec.Store.Records != 1 {
		t.Fatalf("store status = %+v", rec.Store)
	}

	// Memory-only server omits the store section.
	_, ts2 := newTestServer(t, nil)
	resp, err = http.Get(ts2.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var rec2 StatusRecord
	if err := json.Unmarshal(readBody(t, resp), &rec2); err != nil {
		t.Fatal(err)
	}
	if rec2.Store != nil {
		t.Fatalf("memory-only status reports a store: %+v", rec2.Store)
	}
}

func TestRunTimeoutThenRetry(t *testing.T) {
	s, ts := newTestServer(t, nil)
	wl := testWorkload(t, 0)

	// A 1ms deadline on a multi-hundred-ms run must abort from inside
	// the cycle loop and return 504.
	long := fmt.Sprintf(`{"workload":%q,"vp":"tvp","insts":1000000,"timeout_ms":1}`, wl)
	resp := postJSON(t, ts.URL+"/v1/run", long)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, readBody(t, resp))
	}
	decodeError(t, readBody(t, resp))
	if c := s.Counters(); c.Failed != 1 {
		t.Fatalf("failed = %d, want 1", c.Failed)
	}

	// The timeout error must not poison the key: an identical point
	// (same RunKey) at a smaller scale proves nothing here, so re-ask
	// the exact same point without a deadline and expect a real record.
	retry := fmt.Sprintf(`{"workload":%q,"vp":"tvp","insts":1000000}`, wl)
	resp = postJSON(t, ts.URL+"/v1/run", retry)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status = %d (body %s)", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get("X-Tvpd-Source"); got != SourceComputed {
		t.Fatalf("retry source = %q, want %s (cancellation was memoized)", got, SourceComputed)
	}
	rec, err := obs.DecodeRunRecord(readBody(t, resp))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Totals.ArchInsts < 950000 {
		t.Fatalf("retry simulated %d insts", rec.Totals.ArchInsts)
	}
}
