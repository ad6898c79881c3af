package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation share
// Req; Parent is the ID of the span that caused this one (-1 for a
// root). Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / float64(time.Millisecond) }

// recorder keeps spans in memory for the length of a traced run; they
// are written out once, when the run ends.
type recorder struct {
	// on gates the server-side middleware, so one server can run an
	// untraced and a traced phase.
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int32
	mu    sync.Mutex
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) newID() int32 { return r.ids.Add(1) - 1 }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// all returns the spans recorded so far; later adds do not change it.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[:len(r.spans):len(r.spans)]
}

// timed runs f inside a new span and returns the span's ID.
func (r *recorder) timed(name string, parent int32, req int64, f func()) int32 {
	id := r.newID()
	start := r.now()
	f()
	r.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: r.now()})
	return id
}

// write saves the spans as JSON lines under dir.
func (r *recorder) write(dir, name string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
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

// selfTimes returns each span's self time in ms: its duration minus
// the part of its interval that its child spans cover.
func selfTimes(spans []span) map[int32]float64 {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = float64(s.End-s.Start-covered) / float64(time.Millisecond)
	}
	return self
}

// meanMS is the mean duration of the spans accepted by keep.
func meanMS(spans []span, keep func(span) bool) float64 {
	var vs []float64
	for _, s := range spans {
		if keep(s) {
			vs = append(vs, s.ms())
		}
	}
	return mean(vs)
}

func named(name string) func(span) bool {
	return func(s span) bool { return s.Name == name }
}
