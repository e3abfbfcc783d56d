package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// rootName names the span that wraps one op; every other span of the op
// descends from it. Spans outside an op tree (side measurements) are
// recorded but do not count towards op time.
const rootName = "op"

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch; Req groups the spans of one op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced phases pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(when time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(when.Sub(t.epoch))
}

// begin opens a span starting now.
func (t *tracer) begin(name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	return t.beginAt(name, parent, req, t.now())
}

// beginAt opens a span that started at start (used for ops timed from
// their due time).
func (t *tracer) beginAt(name string, parent, req, start int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Start: start}
}

// end closes s now and keeps it.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	t.endAt(s, t.now())
}

func (t *tracer) endAt(s span, end int64) {
	if t == nil {
		return
	}
	s.End = end
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the union
// of its children's intervals clipped to it. Children may overlap (a
// parent waiting on concurrent calls), so overlapping time counts once.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerTimes sums self time by span name over the op trees, and the ops'
// total duration. The root's own self time is op time no layer span
// covers.
func layerTimes(spans []span) (self map[string]int64, opTime int64) {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	inOp := func(s span) bool {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return false
			}
			s = p
		}
		return s.Name == rootName
	}
	st := selfTimes(spans)
	self = map[string]int64{}
	for _, s := range spans {
		if !inOp(s) {
			continue
		}
		self[s.Name] += st[s.ID]
		if s.Parent == 0 {
			opTime += s.End - s.Start
		}
	}
	return self, opTime
}

// durationsMS returns the durations, in milliseconds, of the spans named
// name.
func durationsMS(spans []span, name string) []float64 {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return ds
}

// selfLayers are the span names whose self-time share of op time is a
// per-layer metric on every workload (0 where a workload never calls the
// layer).
var selfLayers = []string{
	rootName,
	"workload.program",
	"pipeline.new",
	"pipeline.run",
	"report.reset",
	"report.compute",
	"report.write",
	"loadgen.wait",
	"http.client",
	"serve.handler",
}

// addTraceMetrics reports each layer's share of op self time, the share
// the layer spans account for, and the tracing overhead against the
// untraced phase's median op time.
func (o *outcome) addTraceMetrics(spans []span, untracedP50, tracedP50 float64) {
	self, opTime := layerTimes(spans)
	byLayer := map[string]int64{}
	for name, ns := range self {
		byLayer[layerOf(name)] += ns
	}
	for _, l := range selfLayers {
		o.addLayer("self_pct."+l, 100*ratio(float64(byLayer[l]), float64(opTime)), "%")
	}
	o.addLayer("trace.coverage_pct", 100*ratio(float64(opTime-byLayer[rootName]), float64(opTime)), "%")
	o.addLayer("trace.overhead_pct", 100*(ratio(tracedP50, untracedP50)-1), "%")
}

// layerOf folds the per-section report spans into one layer; every other
// span name is its own layer.
func layerOf(name string) string {
	if strings.HasPrefix(name, "report.") && name != "report.reset" && name != "report.write" {
		return "report.compute"
	}
	return name
}
