package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory; they are written out once
// the run ends. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	self  time.Duration // total duration minus the time child spans cover
	calls int
	// selves holds each span's own self time, for medians.
	selves []float64
}

// layers aggregates self times by span name.
func (t *tracer) layers() map[string]*layerTime {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.self += time.Duration(self[i])
		lt.calls++
		lt.selves = append(lt.selves, float64(self[i]))
	}
	return out
}

// write stores the spans as a JSON array, creating the directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
