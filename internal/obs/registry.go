// Package obs is the simulator-wide observability layer: a hierarchical
// metrics registry (counters, gauges and histograms components register
// into by name), an event tracer streaming component transitions as JSONL
// and Chrome trace_event JSON, and time-series probes sampling every gauge
// at a fixed cycle interval into CSV. Registries export both a
// byte-deterministic JSON encoding (WriteJSON, unchanged across releases so
// stored sim results stay stable) and the Prometheus text exposition format
// (WritePrometheus) for scraping daemons.
//
// The package is zero-dependency (stdlib only) and engine-agnostic: it never
// imports internal/sim. Timestamps come from a clock callback the owning
// component installs on the Hub, and probe scheduling is driven by the
// caller (internal/system ties it to the event loop).
//
// Everything is nil-safe: a component holding a nil *Hub pays only a
// pointer check per call, so tests and benchmarks that never attach an
// observer run at full speed. Counters are safe for concurrent use
// (sync/atomic), so one registry can be shared by a serving daemon's worker
// pool and its HTTP handlers.
//
// Naming convention: dot-separated hierarchy, lowercase,
// <subsystem>.<component>.<metric> — e.g. "power.gcp.tokens_in_use",
// "mem.wrq.depth", "core.scheduler.multireset_splits". Per-instance series
// insert the index after the component: "power.chip.3.tokens_in_use".
//
// Scopes: a series registered through the Exec variants (ExecCounter,
// ExecGauge) is execution-side telemetry — it describes how the simulation
// ran on the host (wall-clock phase timings, for instance), not what the
// simulated machine did. Exec series appear in snapshots, probes and the
// Prometheus exposition, but are excluded from Values()/WriteJSON so
// system.Result stays bit-identical however the run was executed.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind classifies a registered series.
type Kind uint8

const (
	// KindCounter is a monotonically non-decreasing count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous sampled value.
	KindGauge
	// KindHistogram is a fixed-bucket distribution (see Histogram).
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Counter is a monotonically increasing event count, safe for concurrent
// use. The zero value is ready to use; counters returned by a nil Hub are
// detached (they count, but appear in no registry), and every method is a
// no-op on a nil *Counter so optional instrumentation needs no guards.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter — the one sanctioned break from monotonicity,
// used by the warmup-barrier stats reset so measurement counts start from
// zero on both the cold and the restored path.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.v.Store(0)
}

// metric is one registered series.
type metric struct {
	kind Kind
	exec bool // execution-side telemetry: excluded from Values()/WriteJSON
	read func() float64
}

// Registry maps hierarchical names to live metric sources. Registration
// stores a closure; reads always reflect the component's current state, so
// a snapshot at any cycle is consistent without any double bookkeeping.
//
// The registry's own maps are guarded by a mutex, so registration and
// snapshots may race worker threads; gauge READ closures run outside that
// lock and synchronize (or don't) per the registrant's own rules — e.g.
// internal/serve registers closures over mu-guarded fields and snapshots
// only while holding that mu.
type Registry struct {
	mu       sync.Mutex
	metrics  map[string]metric
	counters map[string]*Counter
	hists    map[string]*Histogram
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics:  make(map[string]metric),
		counters: make(map[string]*Counter),
	}
}

// Counter registers (or retrieves) the named counter.
func (r *Registry) Counter(name string) *Counter {
	return r.counter(name, false)
}

// ExecCounter registers (or retrieves) the named execution-scope counter:
// it appears in snapshots and the Prometheus exposition but not in
// Values()/WriteJSON (see the package scope note).
func (r *Registry) ExecCounter(name string) *Counter {
	return r.counter(name, true)
}

func (r *Registry) counter(name string, exec bool) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	r.metrics[name] = metric{kind: KindCounter, exec: exec, read: func() float64 { return float64(c.Value()) }}
	return c
}

// Gauge registers the named gauge backed by read. Re-registering a name
// replaces its source (components rebuilt between runs simply re-register).
func (r *Registry) Gauge(name string, read func() float64) {
	r.gauge(name, read, false)
}

// ExecGauge registers the named execution-scope gauge (see ExecCounter).
func (r *Registry) ExecGauge(name string, read func() float64) {
	r.gauge(name, read, true)
}

func (r *Registry) gauge(name string, read func() float64, exec bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{kind: KindGauge, exec: exec, read: read}
}

// Histogram registers (or retrieves) the named fixed-bucket histogram.
// bounds are ascending upper bucket bounds; an implicit +Inf bucket catches
// the tail. Retrieval ignores bounds, so all registrants of one name must
// agree on them. Histograms are exposed through Snapshot (observation
// count), HistogramSnapshots and the Prometheus exposition; they do not
// enter Values()/WriteJSON, whose key set predates them and must stay
// byte-stable.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := NewHistogramBuckets(bounds)
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	r.hists[name] = h
	r.metrics[name] = metric{kind: KindHistogram, read: func() float64 { return float64(h.Count()) }}
	return h
}

// SetHelp attaches a HELP string to the named series, emitted by the
// Prometheus exposition.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.help == nil {
		r.help = make(map[string]string)
	}
	r.help[name] = help
}

// Len reports the number of registered series.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.metrics)
}

// Names returns every registered series name in sorted order (all scopes).
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.namesLocked()
}

func (r *Registry) namesLocked() []string {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Value reads one series by name.
func (r *Registry) Value(name string) (float64, bool) {
	r.mu.Lock()
	m, ok := r.metrics[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	return m.read(), true
}

// Sample is one point of a snapshot.
type Sample struct {
	Name  string
	Kind  Kind
	Value float64
}

// Snapshot reads every series (all scopes; histograms sample their
// observation count), sorted by name.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	names := r.namesLocked()
	ms := make([]metric, len(names))
	for i, n := range names {
		ms[i] = r.metrics[n]
	}
	r.mu.Unlock()
	out := make([]Sample, 0, len(names))
	for i, n := range names {
		out = append(out, Sample{Name: n, Kind: ms[i].kind, Value: ms[i].read()})
	}
	return out
}

// Values reads every model-scope counter and gauge into a plain map (the
// form system.Result carries across the experiment harness). Exec-scope
// series and histograms are excluded so the map — and therefore stored
// results — is identical whichever engine variant executed the run and
// whether or not execution telemetry was enabled.
func (r *Registry) Values() map[string]float64 {
	r.mu.Lock()
	type nv struct {
		name string
		read func() float64
	}
	reads := make([]nv, 0, len(r.metrics))
	for n, m := range r.metrics {
		if m.exec || m.kind == KindHistogram {
			continue
		}
		reads = append(reads, nv{n, m.read})
	}
	r.mu.Unlock()
	out := make(map[string]float64, len(reads))
	for _, e := range reads {
		out[e.name] = e.read()
	}
	return out
}

// HistogramSnapshots returns a deterministic (name-sorted) snapshot of
// every registered histogram.
func (r *Registry) HistogramSnapshots() []NamedHistogram {
	r.mu.Lock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	hs := make([]*Histogram, len(names))
	for i, n := range names {
		hs[i] = r.hists[n]
	}
	r.mu.Unlock()
	out := make([]NamedHistogram, len(names))
	for i, n := range names {
		out[i] = NamedHistogram{Name: n, Snapshot: hs[i].Snapshot()}
	}
	return out
}

// ResetMeasurement zeroes every registered counter and histogram (all
// scopes). Gauges read live component state and are untouched. Called by the
// warmup-barrier sequence so measurement statistics start from zero whether
// the barrier was reached by simulation or by checkpoint restore.
func (r *Registry) ResetMeasurement() {
	r.mu.Lock()
	cs := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		cs = append(cs, c)
	}
	hs := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hs = append(hs, h)
	}
	r.mu.Unlock()
	for _, c := range cs {
		c.Reset()
	}
	for _, h := range hs {
		h.Reset()
	}
}

// NamedHistogram pairs a histogram snapshot with its registered name.
type NamedHistogram struct {
	Name     string
	Snapshot HistogramSnapshot
}

// WriteJSON dumps the registry's model-scope counters and gauges as one
// flat JSON object, keys sorted, in a byte-deterministic encoding. This is
// the legacy /metrics format and the encoding of stored sim results; its
// byte format is frozen (see TestEncodeSeriesGolden).
func (r *Registry) WriteJSON(w io.Writer) error {
	return EncodeSeries(w, r.Values())
}

// EncodeSeries writes a name->value map as a sorted, deterministic JSON
// object. Shared by the registry dump and the experiment harness.
func EncodeSeries(w io.Writer, series map[string]float64) error {
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := make([]byte, 0, 32*len(names)+4)
	buf = append(buf, '{', '\n')
	for i, n := range names {
		buf = append(buf, ' ', ' ')
		buf = strconv.AppendQuote(buf, n)
		buf = append(buf, ':', ' ')
		buf = appendJSONFloat(buf, series[n])
		if i < len(names)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, '}', '\n')
	_, err := w.Write(buf)
	return err
}

// appendJSONFloat formats v as a JSON number; NaN/Inf (not representable in
// JSON) become null.
func appendJSONFloat(buf []byte, v float64) []byte {
	if v != v || v > 1.797e308 || v < -1.797e308 {
		return append(buf, "null"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}
