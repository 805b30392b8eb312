package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (the layers themselves are untouched; stage
// timers inside them are ROADMAP item 1). Spans of one operation share
// Op; Parent links a child to the span that caused it (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced twin of a traced pass runs the
// very same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// layerTimes aggregates spans by name.
type layerTimes struct {
	self  map[string]time.Duration   // duration minus what child spans cover
	count map[string]int             // spans
	durs  map[string][]time.Duration // full durations, for percentiles
}

// aggregate computes each name's self time: a span's duration minus the
// part of it its children cover. Children of one parent never overlap
// here (every pass is single-threaded), so the covered part is the sum
// of their durations.
func (t *tracer) aggregate() layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}, count: map[string]int{}, durs: map[string][]time.Duration{}}
	if t == nil {
		return lt
	}
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		lt.self[s.Name] += time.Duration(d - covered[s.ID])
		lt.count[s.Name]++
		lt.durs[s.Name] = append(lt.durs[s.Name], time.Duration(d))
	}
	return lt
}

// meanUs is a name's self time per span, in microseconds.
func (lt layerTimes) meanUs(name string) float64 {
	if lt.count[name] == 0 {
		return 0
	}
	return float64(lt.self[name]) / float64(lt.count[name]) / 1e3
}

// pctUs is a percentile of a name's span durations, in microseconds; 0
// when the sample cannot support it.
func (lt layerTimes) pctUs(name string, p float64) float64 {
	ds := lt.durs[name]
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	sort.Float64s(xs)
	v, err := percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	data, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"gputopo-perf-trace/1", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
