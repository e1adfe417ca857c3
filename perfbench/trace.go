package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary of the traced run. Spans of
// one op share its op id; the root span of an op has parent -1.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Op     int              `json:"op"`
	Name   string           `json:"name"`
	Start  time.Duration    `json:"start_ns"` // since the recorder started
	End    time.Duration    `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: in-process shard servers record from their own
// goroutines.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, op, parent int) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes span id, attaching counts measured at the same boundary, and
// returns the span's duration.
func (r *recorder) end(id int, counts map[string]int64) time.Duration {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	r.spans[id].Counts = counts
	return r.spans[id].dur()
}

// all returns a copy of the closed spans.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores every closed span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is parent's duration minus the part of its interval that its
// children cover. Children may overlap each other (parallel shard calls)
// or stick out of the parent; only their union inside the parent counts.
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
	covered := time.Duration(0)
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

// childrenOf indexes spans by parent id.
func childrenOf(spans []span) map[int][]span {
	out := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}
