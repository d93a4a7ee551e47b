package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// simulation share ID (workload/config label); Parent indexes the caller's
// span, -1 for the sweep root.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Cold   bool   `json:"cold,omitempty"` // system.Build: first build of its workload
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// layerOf maps a span name to the layer its self time is charged to. The
// sweep root's self time is the part of the sweep no simulation covers: the
// exp runner, table rendering and idle workers.
var layerOf = map[string]string{
	"sweep":                   "uncovered",
	"sim":                     "exp.backend",
	"workload.ByName":         "workload",
	"system.Build":            "system.build",
	"System.Release":          "system.release",
	"ckpt.Store.Claim":        "ckpt.claim",
	"ckpt.Store.Wait":         "ckpt.claim",
	"system.RestoreSystem":    "ckpt.restore",
	"System.Run":              "run.measure",
	"run.warmup":              "run.warmup",
	"barrier_hook":            "run.barrier",
	"System.EncodeCheckpoint": "ckpt.encode",
	"ckpt.Store.Put":          "ckpt.put",
	"result.check":            "bench.check",
	"json.Marshal":            "result.encode",
}

// tracer keeps spans in memory until the sweep ends. A nil *tracer records
// nothing, so untraced sweeps share the traced code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(id, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were taken outside begin/end.
func (t *tracer) add(id, name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) startOf(i int) time.Time {
	if t == nil {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch.Add(time.Duration(t.spans[i].Start))
}

func (t *tracer) markCold(i int, cold bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].Cold = cold
	t.mu.Unlock()
}

// selfTimes gives each span's duration minus the part of it covered by its
// children, in seconds. Children of one span may overlap (simulations run
// by parallel workers under the sweep root), so coverage is their union.
func (t *tracer) selfTimes() []float64 {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			c := t.spans[k]
			iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, hi int64
		hi = s.Start
		for _, v := range iv {
			if v[0] > hi {
				hi = v[0]
			}
			if v[1] > hi {
				covered += v[1] - hi
				hi = v[1]
			}
		}
		self[i] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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
