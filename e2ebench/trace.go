package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/service"
)

// span is one timed interval of a traced run. Spans of one job share Job;
// Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer holds a traced run's spans in memory until the run writes them out.
type tracer struct {
	on atomic.Bool // handler spans are recorded only while set

	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID.
func (t *tracer) add(sp span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp.ID = len(t.spans) + 1
	t.spans = append(t.spans, sp)
	return sp.ID
}

// time runs f inside a span named name under parent and returns the
// span's duration in nanoseconds.
func (t *tracer) time(name, job string, parent int, f func()) int64 {
	start := time.Now().UnixNano()
	f()
	end := time.Now().UnixNano()
	t.add(span{Parent: parent, Name: name, Job: job, Start: start, End: end})
	return end - start
}

// open starts a span that finish ends; its children name it as parent
// meanwhile.
func (t *tracer) open(name, job string, parent int) int {
	return t.add(span{Parent: parent, Name: name, Job: job, Start: time.Now().UnixNano()})
}

// finish ends a span begun with open.
func (t *tracer) finish(id int) {
	end := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// setParent re-parents span id (handler spans are recorded by the server
// goroutine before the client knows which run span they belong to).
func (t *tracer) setParent(id, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Parent = parent
}

// wrap returns a registry whose kind handler records a "service.handler"
// span per call while tracing is on; the job's request Name keys the span.
func (t *tracer) wrap(kind api.Kind) *service.Registry {
	reg := service.DefaultRegistry()
	h, _ := reg.Handler(kind)
	reg.Register(kind, func(jc *service.JobContext) (any, error) {
		if !t.on.Load() {
			return h(jc)
		}
		start := time.Now().UnixNano()
		res, err := h(jc)
		t.add(span{Name: "service.handler", Job: jc.Request().Name, Start: start, End: time.Now().UnixNano()})
		return res, err
	})
	return reg
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// durationsMs lists, in milliseconds, the durations of the spans named name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, nsToMs(s.dur()))
		}
	}
	return out
}

// perJobMs sums, per job, the durations of the spans named name, and
// returns the per-job totals in milliseconds.
func perJobMs(spans []span, name string) []float64 {
	byJob := make(map[string]int64)
	var order []string
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if _, ok := byJob[s.Job]; !ok {
			order = append(order, s.Job)
		}
		byJob[s.Job] += s.dur()
	}
	out := make([]float64, len(order))
	for i, j := range order {
		out[i] = nsToMs(byJob[j])
	}
	return out
}

// writeSpans writes the run's stamp and spans as JSON lines under dir.
func writeSpans(dir string, st stamp, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", st.Workload, st.Seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	werr := enc.Encode(st)
	for _, s := range spans {
		if werr != nil {
			break
		}
		werr = enc.Encode(s)
	}
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return path, werr
}
