package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one op share OpID (-1 for set-up and probes); Parent is the ID of
// the span that caused this one (-1 for the workload root).
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	OpID     int              `json:"op_id"`
	Workload string           `json:"workload"`
	Layer    string           `json:"layer"`
	Name     string           `json:"name"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

func (s span) duration() int64 { return s.EndNs - s.StartNs }

// tracer keeps the spans of one traced pass in memory; they are written out
// once, when the pass ends. A nil tracer records nothing, which is how the
// untraced pass runs the same code.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// add records a finished span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(parent, opID int, layer, name string, start, end time.Time, counts map[string]int64) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, OpID: opID, Workload: t.workload,
		Layer: layer, Name: name, StartNs: t.ns(start), EndNs: t.ns(end), Counts: counts,
	})
	return id
}

// open records a span whose end is not known yet; close it with finish.
func (t *tracer) open(parent, opID int, layer, name string, start time.Time) int {
	return t.add(parent, opID, layer, name, start, start, nil)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = t.ns(end)
}

// timed runs fn inside a span and returns how long it took.
func (t *tracer) timed(parent, opID int, layer, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, opID, layer, name, start, end, nil)
	return end.Sub(start)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its children cover. Children may overlap each other (the
// union is counted once), may be missing (the gap stays with the parent) and
// are clipped to the parent's interval.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		var covered int64
		cursor := s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, cursor), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.duration() - covered
	}
	return self
}

// levelSpans turns the host timestamps at which an op's level events were
// received into consecutive level intervals: level i lasts from its own
// event to the next one, the last level to `end`. Everything is clamped to
// [start, end] — the enclosing core.run or kernel span — so the levels can
// never add up to more than the call that ran them.
func levelSpans(start, end time.Time, stamps []time.Time) [][2]time.Time {
	out := make([][2]time.Time, len(stamps))
	clamp := func(t time.Time) time.Time {
		if t.Before(start) {
			return start
		}
		if t.After(end) {
			return end
		}
		return t
	}
	for i := range stamps {
		lo := clamp(stamps[i])
		hi := end
		if i+1 < len(stamps) {
			hi = clamp(stamps[i+1])
		}
		if hi.Before(lo) {
			hi = lo
		}
		out[i] = [2]time.Time{lo, hi}
	}
	return out
}

// writeSpans stores the spans of a finished pass as one JSON document.
func writeSpans(path, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
