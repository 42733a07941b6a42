package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The traced run records a span around every public call it makes into a
// layer: name, start, end, parent span and unit id. Spans are kept in
// memory and written out when the run ends. Each goroutine records into its
// own shard, so tracing takes no lock on the hot path; per-name totals are
// kept for every span, while only the first maxSpansPerShard spans of a
// shard are kept verbatim (a vyrdd run makes one span per shipped entry).

const maxSpansPerShard = 200_000

type span struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Parent int    `json:"parent"` // id of the enclosing span in this shard; -1 at the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanTotal is the aggregate of every span with one name.
type spanTotal struct {
	Count int64 `json:"count"`
	NS    int64 `json:"ns"`
}

type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	shards []*traceShard
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// shard returns a new recording shard for one goroutine. A nil tracer
// returns a nil shard, on which every method is a no-op: the untraced run
// calls the same code.
func (t *tracer) shard() *traceShard {
	if t == nil {
		return nil
	}
	s := &traceShard{epoch: t.epoch, totals: make(map[string]*spanTotal)}
	t.mu.Lock()
	t.shards = append(t.shards, s)
	t.mu.Unlock()
	return s
}

type traceShard struct {
	epoch   time.Time
	spans   []span
	dropped int64
	totals  map[string]*spanTotal
}

// handle is an open span.
type handle struct {
	id    int // index in spans, or -1 when the span was not kept
	name  string
	start time.Time
}

func (s *traceShard) begin(name, unit string, parent handle) handle {
	if s == nil {
		return handle{id: -1}
	}
	h := handle{id: -1, name: name, start: time.Now()}
	if len(s.spans) < maxSpansPerShard {
		h.id = len(s.spans)
		s.spans = append(s.spans, span{Name: name, Unit: unit, Parent: parent.id, Start: int64(h.start.Sub(s.epoch))})
	} else {
		s.dropped++
	}
	return h
}

func (s *traceShard) end(h handle) time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(h.start)
	if h.id >= 0 {
		s.spans[h.id].End = int64(now.Sub(s.epoch))
	}
	t := s.totals[h.name]
	if t == nil {
		t = &spanTotal{}
		s.totals[h.name] = t
	}
	t.Count++
	t.NS += int64(d)
	return d
}

// root is the parent handle of a top-level span.
var root = handle{id: -1}

// totals merges the per-name aggregates of every shard. Call it only after
// the recording goroutines have finished.
func (t *tracer) totals() map[string]spanTotal {
	out := make(map[string]spanTotal)
	for _, s := range t.shards {
		for name, st := range s.totals {
			cur := out[name]
			cur.Count += st.Count
			cur.NS += st.NS
			out[name] = cur
		}
	}
	return out
}

// write stores the spans and totals as one JSON file under dir and returns
// its path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type shardOut struct {
		Shard   int    `json:"shard"`
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}
	doc := struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Totals   map[string]spanTotal `json:"totals"`
		Shards   []shardOut           `json:"shards"`
	}{Workload: workload, Seed: seed, Totals: t.totals()}
	for i, s := range t.shards {
		doc.Shards = append(doc.Shards, shardOut{Shard: i, Dropped: s.dropped, Spans: s.spans})
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
