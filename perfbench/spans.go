package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans are kept in memory and written out once the run ends.
// Derived spans carry a duration a program hook reported (the core
// SpanHook, a flight record) rather than one the benchmark timed; their
// start is reconstructed as end minus duration.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	Key     int64  `json:"key"` // boundary, round or point id
	Lane    string `json:"lane,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// Lanes. The main lane is the goroutine that drives the workload; its
// spans nest, so their self times tile the timed phase. Spans on other
// lanes run concurrently with it and are reported separately.
const (
	laneMain  = ""
	laneDrain = "drain"
)

// tracer records spans when on; when off every method is a cheap no-op,
// so the untraced run pays one branch per call site.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<16)
	}
	return t
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int32, key int64) int32 {
	if !t.on {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if !t.on || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// interval records a main-lane span whose bounds the caller measured.
func (t *tracer) interval(name string, parent int32, key int64, start, end int64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Name: name, Key: key, Start: start, End: end})
	t.mu.Unlock()
}

// spanKey returns a span's key (0 when tracing is off or id is -1).
func (t *tracer) spanKey(id int32) int64 {
	if !t.on || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Key
}

// derived records a hook-reported duration ending now.
func (t *tracer) derived(name string, parent int32, key int64, lane string, ns int64) {
	if !t.on || ns <= 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Name: name, Key: key, Lane: lane, Start: now - ns, End: now, Derived: true})
	t.mu.Unlock()
}

// within records a hook-reported duration as a child placed at the end
// of its parent (at now while the parent is still open).
func (t *tracer) within(name string, parent int32, lane string, ns int64) {
	if !t.on || ns <= 0 || parent < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	end, key := t.spans[parent].End, t.spans[parent].Key
	if end < 0 {
		end = now
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Name: name, Key: key, Lane: lane, Start: end - ns, End: end, Derived: true})
	t.mu.Unlock()
}

// selfTimes sums, per span name on one lane, each span's duration minus
// the durations of its children on the same lane, in seconds.
func (t *tracer) selfTimes(lane string) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.Lane == lane && t.spans[s.Parent].Lane == lane {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.Lane != lane {
			continue
		}
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// total sums the durations of every span with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if !t.on {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(t.spans)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
