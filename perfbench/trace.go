package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a batch on the wire or a sampled call
// into a layer. Spans of one request share req; a top-level span has
// parent 0.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the store's epoch
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory store (about 100 MB at the cap); spans
// past it are counted, not kept.
const maxSpans = 1 << 20

// spanStore keeps spans in memory until the run writes them out.
type spanStore struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
	nextID  uint64
}

func newSpanStore() *spanStore {
	return &spanStore{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// reserve returns a fresh span id, for a span whose children are
// recorded before it ends.
func (s *spanStore) reserve() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return s.nextID
}

// record stores span id under request req (0 = a request of its own).
func (s *spanStore) record(id uint64, name string, start, end time.Time, parent, req uint64) {
	if req == 0 {
		req = id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.spans) >= maxSpans {
		s.dropped++
		return
	}
	s.spans = append(s.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(s.epoch)), End: int64(end.Sub(s.epoch))})
}

// child records a finished span under parent, in parent's request.
func (s *spanStore) child(name string, start, end time.Time, parent uint64) {
	s.record(s.reserve(), name, start, end, parent, parent)
}

// spanSummary is one span name's count and total duration.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// summary aggregates the spans by name.
func (s *spanStore) summary() []spanSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	by := map[string]*spanSummary{}
	for _, sp := range s.spans {
		e := by[sp.Name]
		if e == nil {
			e = &spanSummary{Name: sp.Name}
			by[sp.Name] = e
		}
		e.Count++
		e.TotalMS += float64(sp.End-sp.Start) / 1e6
	}
	out := make([]spanSummary, 0, len(by))
	for _, e := range by {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeFile writes the spans as JSON lines, one span per line.
func (s *spanStore) writeFile(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	for i := range s.spans {
		if err := enc.Encode(&s.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
