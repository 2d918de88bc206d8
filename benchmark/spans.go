package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one recorded interval around a call into a layer's public
// function. Times are nanoseconds since the recorder was created; Parent is
// the index of the span that caused this one (-1 for a root); Op groups the
// spans of one operation (a batch repeat, a job cycle, a delta batch).
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// recorder keeps every span in memory until the run ends. It is the
// benchmark's own tracer, deliberately independent of internal/span and
// internal/trace so that merging those two cannot break the benchmark.
// A nil recorder, or one that is switched off, records nothing: start
// returns noSpan and end ignores it, so call sites need no branches.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	on    bool
	spans []spanRec
}

const noSpan = -1

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// enable switches recording on or off; the traced run alternates it between
// operations to price the recorder against the same process's untraced ops.
func (r *recorder) enable(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

func (r *recorder) enabled() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.on
}

func (r *recorder) start(name string, parent int, op int64) int {
	if r == nil {
		return noSpan
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return noSpan
	}
	r.spans = append(r.spans, spanRec{Name: name, Parent: parent, Op: op, End: -1})
	id := len(r.spans) - 1
	// Stamped last so the span excludes the recorder's own append.
	r.spans[id].Start = int64(time.Since(r.t0))
	return id
}

func (r *recorder) end(id int) {
	if id == noSpan {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are counted
// once). Unclosed spans get zero.
func selfTimes(spans []spanRec) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			c := spans[k]
			if c.End < 0 {
				continue
			}
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload string           `json:"workload"`
	Spans    []spanRec        `json:"spans"`
	SelfNS   map[string]int64 `json:"self_ns_by_name"`
}

// dump writes every span, plus self time summed by span name, to
// dir/trace-<workload>.json.
func (r *recorder) dump(dir, workload string) error {
	r.mu.Lock()
	spans := append([]spanRec(nil), r.spans...)
	r.mu.Unlock()
	tf := traceFile{Workload: workload, Spans: spans, SelfNS: map[string]int64{}}
	for i, ns := range selfTimes(spans) {
		tf.SelfNS[spans[i].Name] += ns
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), body, 0o644)
}
