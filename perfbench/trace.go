package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer's public entry point. Times are nanoseconds since the run
// started. Parent is the ID of the span that caused it (0 for none); Req
// is the request's stream position where one request is known, else -1.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req"`
}

// maxSpans caps the in-memory span buffer; later spans are counted as
// dropped rather than recorded.
const maxSpans = 400_000

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now is the tracer clock: nanoseconds since the run started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) id() int64 { return t.nextID.Add(1) }

// add records a span with a fresh ID, or the given one when id > 0.
func (t *tracer) add(id, parent int64, name string, start, end, req int64) {
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{id, parent, name, start, end, req})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of the named spans.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []int64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.End-s.Start)
		}
	}
	return ds
}

// selfTime aggregates one span name: its count, total duration, and self
// time — each span's duration minus the part of it its children cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	agg := map[string]*selfTime{}
	var order []string
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		a.Count++
		a.TotalMs += float64(d) / 1e6
		a.SelfMs += float64(d-covered(s, kids[s.ID])) / 1e6
	}
	out := make([]selfTime, 0, len(order))
	for _, n := range order {
		out = append(out, *agg[n])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total, curS, curE int64 = 0, -1, -1
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// writeFile writes the host facts, the per-name self times and every span
// to path as one JSON document, and returns the self times.
func (t *tracer) writeFile(path string, h host, workload string, seed uint64) ([]selfTime, error) {
	selfs := t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	err = json.NewEncoder(w).Encode(struct {
		Host     host       `json:"host"`
		Workload string     `json:"workload"`
		Seed     uint64     `json:"seed"`
		Self     []selfTime `json:"self"`
		Dropped  int64      `json:"dropped"`
		Spans    []span     `json:"spans"`
	}{h, workload, seed, selfs, t.dropped, t.spans})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return selfs, err
}
