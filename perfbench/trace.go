package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one request (a pass, a served job) share Trace.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid no-op, which is how untraced passes run: they pay one nil check
// per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span and returns its ID (0 on a nil tracer).
// trace may be empty, in which case the span joins its parent's trace.
func (t *tracer) record(trace, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if trace == "" && parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0),
	})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(trace, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.record(trace, name, parent, now, now)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.t0)
	t.mu.Unlock()
}

// timed runs f inside a span and returns its duration; it times f even
// on a nil tracer.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	id := t.begin("", name, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// children returns the direct children of span id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	buf, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// selfTime is the parent's duration minus the part of its interval that
// the children cover. Children may overlap each other or stick out of
// the parent; only their union inside the parent is subtracted.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}
