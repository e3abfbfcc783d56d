package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workload"
)

// API schema versions for the records this package emits itself
// (RunRecords reuse obs.RunSchema unchanged).
const (
	ErrorSchema  = "tvp.serve.error/v1"
	StatusSchema = "tvp.serve.status/v1"
)

// Request limits. Each sits well above anything the tools send (the
// default sweep grid is 124 cells; tests and examples stay at or under
// 1M instructions per point) and bounds how long one request can hold a
// pool worker and how many goroutines one sweep can start.
const (
	// maxBodyBytes caps a request body; a larger one gets 413.
	maxBodyBytes = 1 << 20
	// maxPointInsts caps warmup + insts of one point; more gets 400.
	maxPointInsts = 50_000_000
	// maxSweepCells caps a sweep's workloads × vp_modes; more gets 400.
	maxSweepCells = 1024
	// maxTimeoutMS is the largest timeout_ms a time.Duration holds;
	// more, or a negative value, gets 400.
	maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)
)

// errUnknownWorkload marks a well-formed request naming a workload the
// suite does not define: 404, not 400.
var errUnknownWorkload = errors.New("unknown workload")

// RunRequest asks for one simulation point. The machine configuration
// is the paper's default machine with the request's VP flavor applied
// (config.Default().WithVP(...).WithSpSR(...)), the same knobs the
// figure sweeps turn.
type RunRequest struct {
	Workload string `json:"workload"`
	// VP names the value-prediction flavor: off|mvp|tvp|gvp.
	VP     string `json:"vp"`
	SpSR   bool   `json:"spsr"`
	Warmup uint64 `json:"warmup"`
	Insts  uint64 `json:"insts"`
	// TimeoutMS bounds the request; on expiry the run is stopped from
	// inside the cycle loop and 504 is returned.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepRequest asks for a grid of points, streamed back as NDJSON (one
// RunRecord per line, in workloads × vp_modes order).
type SweepRequest struct {
	// Workloads defaults to the full suite when empty.
	Workloads []string `json:"workloads,omitempty"`
	// VPModes defaults to off,mvp,tvp,gvp when empty.
	VPModes   []string `json:"vp_modes,omitempty"`
	SpSR      bool     `json:"spsr"`
	Warmup    uint64   `json:"warmup"`
	Insts     uint64   `json:"insts"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

// apiError is the structured error body (and, during a sweep, the
// per-point error line).
type apiError struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload,omitempty"`
	Error    string `json:"error"`
}

// StatusRecord is the /v1/status response.
type StatusRecord struct {
	Schema        string       `json:"schema"`
	Healthy       bool         `json:"healthy"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Workers       int          `json:"workers"`
	QueueDepth    int          `json:"queue_depth"`
	QueueCap      int          `json:"queue_cap"`
	Inflight      int          `json:"inflight"`
	Requests      Counters     `json:"requests"`
	Cache         CacheStatus  `json:"cache"`
	Store         *StoreStatus `json:"store,omitempty"`
}

// CacheStatus reports the in-memory tier.
type CacheStatus struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Len    int    `json:"len"`
}

// StoreStatus reports the persistent tier (absent when memory-only).
type StoreStatus struct {
	Dir            string `json:"dir"`
	Records        int    `json:"records"`
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Puts           uint64 `json:"puts"`
	Quarantined    uint64 `json:"quarantined"`
	StaleEvictions uint64 `json:"stale_evictions"`
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	return mux
}

func knownWorkload(name string) bool {
	for _, n := range workload.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// point validates the request and assembles the simulation point.
func (r RunRequest) point() (report.Point, error) {
	if r.Workload == "" {
		return report.Point{}, fmt.Errorf("missing workload")
	}
	if !knownWorkload(r.Workload) {
		return report.Point{}, fmt.Errorf("%w %q", errUnknownWorkload, r.Workload)
	}
	if r.Insts == 0 {
		return report.Point{}, fmt.Errorf("insts must be positive")
	}
	if r.TimeoutMS < 0 || r.TimeoutMS > maxTimeoutMS {
		return report.Point{}, fmt.Errorf("timeout_ms %d outside [0, %d]", r.TimeoutMS, maxTimeoutMS)
	}
	if r.Warmup > maxPointInsts || r.Insts > maxPointInsts-r.Warmup {
		return report.Point{}, fmt.Errorf("warmup + insts exceeds the %d-instruction limit", maxPointInsts)
	}
	mode, err := config.ParseVPMode(r.VP)
	if err != nil {
		return report.Point{}, err
	}
	cfg := config.Default().WithVP(mode).WithSpSR(r.SpSR)
	if err := cfg.Validate(); err != nil {
		return report.Point{}, err
	}
	return report.Point{
		Workload: r.Workload,
		Cfg:      cfg,
		Warmup:   r.Warmup,
		Insts:    r.Insts,
	}, nil
}

// points expands the sweep grid in deterministic workloads-major order.
func (r SweepRequest) points() ([]report.Point, error) {
	names := r.Workloads
	if len(names) == 0 {
		names = workload.Names()
	}
	modes := r.VPModes
	if len(modes) == 0 {
		modes = []string{"off", "mvp", "tvp", "gvp"}
	}
	if len(names)*len(modes) > maxSweepCells {
		return nil, fmt.Errorf("sweep grid of %d×%d points exceeds the %d-point limit", len(names), len(modes), maxSweepCells)
	}
	pts := make([]report.Point, 0, len(names)*len(modes))
	for _, w := range names {
		for _, m := range modes {
			p, err := RunRequest{
				Workload:  w,
				VP:        m,
				SpSR:      r.SpSR,
				Warmup:    r.Warmup,
				Insts:     r.Insts,
				TimeoutMS: r.TimeoutMS,
			}.point()
			if err != nil {
				return nil, err
			}
			pts = append(pts, p)
		}
	}
	return pts, nil
}

func writeError(w http.ResponseWriter, code int, wl, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(apiError{Schema: ErrorSchema, Workload: wl, Error: fmt.Sprintf(format, args...)})
}

// errorStatus maps a resolution error to an HTTP status code.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable // client went away or server draining
	case errors.Is(err, report.ErrPoolClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// requestCtx derives the resolution context: the HTTP request context
// (canceled when the client disconnects or the server shuts down),
// tightened by the request's own timeout if it set one.
func requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	if timeoutMS > 0 {
		return context.WithTimeout(r.Context(), time.Duration(timeoutMS)*time.Millisecond)
	}
	return r.Context(), func() {}
}

// recordBytes renders a RunRecord exactly as every tier must serve it:
// compact JSON plus a trailing newline. Byte identity across memory,
// disk and freshly-computed answers is asserted by the persistence
// integration test.
func recordBytes(rec *obs.RunRecord) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// decodeRequest decodes a size-capped JSON request body into v, writing
// the 400 (malformed) or 413 (too large) answer itself on failure.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "", "request body exceeds %d bytes", tooLarge.Limit)
	case err != nil:
		writeError(w, http.StatusBadRequest, "", "malformed request: %v", err)
	}
	return err == nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	p, err := req.point()
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errUnknownWorkload) {
			code = http.StatusNotFound
		}
		writeError(w, code, req.Workload, "%v", err)
		return
	}
	ctx, cancel := requestCtx(r, req.TimeoutMS)
	defer cancel()
	st, source, err := s.Resolve(ctx, p)
	if err != nil {
		writeError(w, errorStatus(err), req.Workload, "%v", err)
		return
	}
	rec := obs.NewRunRecord(obs.RunMeta{
		Workload: p.Workload,
		Cfg:      p.Cfg,
		Warmup:   p.Warmup,
		Insts:    p.Insts,
	}, st)
	b, err := recordBytes(rec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, req.Workload, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Tvpd-Source", source)
	w.Write(b)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.Insts == 0 {
		writeError(w, http.StatusBadRequest, "", "insts must be positive")
		return
	}
	pts, err := req.points()
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errUnknownWorkload) {
			code = http.StatusNotFound
		}
		writeError(w, code, "", "%v", err)
		return
	}
	ctx, cancel := requestCtx(r, req.TimeoutMS)
	defer cancel()

	// Resolve every point concurrently (the pool bounds real simulation
	// work) but stream strictly in grid order, flushing per line, so
	// clients read a deterministic NDJSON sequence.
	lines := make([]chan []byte, len(pts))
	for i := range pts {
		lines[i] = make(chan []byte, 1)
		go func(i int, p report.Point) {
			st, _, err := s.Resolve(ctx, p)
			if err != nil {
				b, _ := json.Marshal(apiError{Schema: ErrorSchema, Workload: p.Workload, Error: err.Error()})
				lines[i] <- append(b, '\n')
				return
			}
			rec := obs.NewRunRecord(obs.RunMeta{
				Workload: p.Workload,
				Cfg:      p.Cfg,
				Warmup:   p.Warmup,
				Insts:    p.Insts,
			}, st)
			b, err := recordBytes(rec)
			if err != nil {
				b2, _ := json.Marshal(apiError{Schema: ErrorSchema, Workload: p.Workload, Error: err.Error()})
				b = append(b2, '\n')
			}
			lines[i] <- b
		}(i, pts[i])
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	for i := range lines {
		w.Write(<-lines[i])
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cache.Counters()
	depth, capacity := s.pool.QueueDepth()
	rec := StatusRecord{
		Schema:        StatusSchema,
		Healthy:       true,
		UptimeSeconds: sinceSeconds(s.start),
		Workers:       s.pool.Workers(),
		QueueDepth:    depth,
		QueueCap:      capacity,
		Inflight:      s.Inflight(),
		Requests:      s.Counters(),
		Cache:         CacheStatus{Hits: hits, Misses: misses, Len: s.cache.Len()},
	}
	if s.store != nil {
		c := s.store.Counters()
		rec.Store = &StoreStatus{
			Dir:            s.store.Dir(),
			Records:        s.store.Len(),
			Hits:           c.Hits,
			Misses:         c.Misses,
			Puts:           c.Puts,
			Quarantined:    c.Quarantined,
			StaleEvictions: c.StaleEvictions,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.Marshal(rec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "", "%v", err)
		return
	}
	w.Write(append(b, '\n'))
}
