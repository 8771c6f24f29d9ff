package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into the program. Spans live
// in memory until the workload ends; spans of one request (a batch and
// its HTTP call, a job and its polls) share Req.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the causing span, -1 for a root
	Req     int64  `json:"req"`    // request id shared by a request's spans, 0 for none
}

// tracer records spans when the run is traced. A nil *tracer is the
// untraced run: every method is a no-op that costs one nil check, so
// the end-to-end numbers are measured without it.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// cost estimates the time this tracer spent recording: its span count
// times the cost of one begin/end pair, calibrated on a scratch tracer.
func (t *tracer) cost() time.Duration {
	const n = 100_000
	scratch := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		scratch.end(scratch.begin("calibrate", -1, 0))
	}
	perSpan := time.Since(t0) / n
	t.mu.Lock()
	defer t.mu.Unlock()
	return perSpan * time.Duration(len(t.spans))
}

// selfTimes returns, per span name, the summed duration of its spans
// minus the part of each their child spans cover, in nanoseconds.
// Children of one parent may overlap (two writers, a writer beside a
// reader), so the covered part is the union of their intervals.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, end := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, end), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[s.Name] += s.EndNS - s.StartNS - covered
	}
	return self
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
