package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fpb/internal/ckpt"
	"fpb/internal/exp"
	"fpb/internal/sim"
	"fpb/internal/stats"
	"fpb/internal/system"
	"fpb/internal/workload"
)

// spec is one benchmark workload: an exp experiment at a fixed scale.
type spec struct {
	Name      string
	Exp       string   // exp experiment ID
	Instr     uint64   // instructions per core
	Workers   int      // exp.Options.Workers: simulations run at once
	Workloads []string // nil: all 13
	Warmup    uint64   // DIMM+chip warmup cycles; >0 adds a ckpt.Store
	Sims      int      // simulations the sweep attempts

	// Dominant layers must take at least MinShare of the summed
	// per-simulation host time, or the workload no longer stresses what it
	// was chosen for.
	Dominant []string
	MinShare float64
}

// specs are the benchmark workloads; README.md says why each was chosen.
var specs = []spec{
	{Name: "fig18_short", Exp: "fig18", Instr: 20_000, Workers: 1, Sims: 65,
		Dominant: []string{"system.build"}, MinShare: 0.5},
	{Name: "fig23_long", Exp: "fig23", Instr: 200_000, Workers: 2,
		Workloads: []string{"mum_m", "mix_1", "mix_2", "mix_3"}, Sims: 20,
		Dominant: []string{"run.measure"}, MinShare: 0.8},
	{Name: "fig18_warm", Exp: "fig18", Instr: 20_000, Workers: 1, Warmup: 8_000_000, Sims: 65,
		Dominant: []string{"ckpt.claim", "ckpt.restore", "ckpt.encode", "ckpt.put", "run.warmup"}, MinShare: 0.2},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sweepOpts configures one in-process sweep.
type sweepOpts struct {
	spec   spec
	seed   uint64      // overrides cfg.Seed of every simulation
	traced bool        // run every simulation through the span-recording mirror
	dir    string      // scratch directory: checkpoint store and span file
	ref    *refDigests // nil: record digests without checking them
}

// sweepResult is what one sweep reports; a child process prints it as JSON.
type sweepResult struct {
	Traced      bool               `json:"traced"`
	SweepS      float64            `json:"sweep_s"`
	FirstRunNs  int64              `json:"first_run_unix_ns"`
	Sims        int                `json:"sims"`
	Failures    []string           `json:"failures"` // failed simulations, each named
	Errors      []string           `json:"errors"`   // sweep-level failures: the run, the table
	Warm        int                `json:"warm_starts"`
	Digests     map[string]string  `json:"digests"`
	Table       string             `json:"table"`
	TableDigest string             `json:"table_digest"`
	Gmeans      map[string]float64 `json:"gmeans"`
	Heap        float64            `json:"heap_retained_mb"`
	Runtime     map[string]float64 `json:"runtime"`
	Layers      map[string]float64 `json:"layer_self_s,omitempty"`
	SimHostS    float64            `json:"sim_host_s,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
}

// sweeper is the exp.Backend the benchmark installs, plus what it observed.
type sweeper struct {
	o       sweepOpts
	store   *ckpt.Store
	tr      *tracer // nil when untraced
	sweepSp int
	first   atomic.Bool  // set once a simulation took the mirror path
	runAt   atomic.Int64 // unix ns of the first System.Run call

	mu       sync.Mutex
	keys     map[string]string // sim id -> system.Key, to catch ambiguous labels
	failed   map[string]string // sim id -> reason
	digests  map[string]string
	counts   map[string]float64
	instrs   float64
	simNs    float64 // simulated ns of the measured phases
	warm     int
	imageKB  []float64
	builtWls map[string]bool
}

// configLabel names a figure column from its config: the scheme plus the
// read-latency schemes Fig. 23 layers on top of it.
func configLabel(cfg sim.Config) string {
	l := cfg.Scheme.String()
	if cfg.WriteCancellation {
		l += "+WC"
	}
	if cfg.WritePausing {
		l += "+WP"
	}
	if cfg.WriteTruncation {
		l += "+WT"
	}
	return l
}

// runSweep runs the spec's experiment once in this process and checks every
// simulation and the rendered table against o.ref.
func runSweep(o sweepOpts) (*sweepResult, error) {
	s := &sweeper{
		o:        o,
		keys:     map[string]string{},
		failed:   map[string]string{},
		digests:  map[string]string{},
		counts:   map[string]float64{},
		builtWls: map[string]bool{},
		sweepSp:  -1,
	}
	e, ok := exp.ByID(o.spec.Exp)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", o.spec.Exp)
	}
	if o.traced {
		s.tr = newTracer()
	}
	start := time.Now()
	s.sweepSp = s.tr.begin("sweep", "sweep", -1)
	if o.spec.Warmup > 0 {
		st, err := ckpt.NewStore(filepath.Join(o.dir, "ckpt"))
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	opt := exp.Options{
		InstrPerCore: o.spec.Instr,
		Workloads:    o.spec.Workloads,
		Workers:      o.spec.Workers,
		WarmupCycles: o.spec.Warmup,
		Backend:      s.backend,
	}
	if o.spec.Warmup > 0 {
		opt.WarmupScheme = sim.SchemeDIMMChip
	}
	table, runErr := e.Run(exp.NewRunner(opt))
	res := &sweepResult{Traced: o.traced}
	if runErr == nil {
		res.Table = table.String()
		res.TableDigest = digest([]byte(res.Table))
		res.Gmeans = gmeans(table)
	}
	s.checkAll(res, runErr)
	s.tr.end(s.sweepSp)
	res.SweepS = time.Since(start).Seconds()

	// Two collections: the first only moves sync.Pool contents (released
	// cache metadata) to the pools' victim caches, whose size depends on
	// worker timing; the second frees them, leaving what the process keeps.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Heap = float64(ms.HeapAlloc) / (1 << 20)
	res.Runtime = map[string]float64{
		"go.alloc_mb":    float64(ms.TotalAlloc) / (1 << 20),
		"go.gc_cycles":   float64(ms.NumGC),
		"go.gc_pause_ms": float64(ms.PauseTotalNs) / 1e6,
		"rss_peak_mb":    rssPeakMB(),
	}
	res.FirstRunNs = s.runAt.Load()
	res.Sims = len(s.keys)
	res.Warm = s.warm
	res.Digests = s.digests
	for id, why := range s.failed {
		res.Failures = append(res.Failures, id+": "+why)
	}
	sort.Strings(res.Failures)
	if s.tr != nil {
		s.layerMetrics(res)
		if err := s.tr.write(filepath.Join(o.dir, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkAll settles the sweep-level checks: the experiment finished, every
// referenced simulation ran, and the rendered table matches its digest.
func (s *sweeper) checkAll(res *sweepResult, runErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if runErr != nil {
		res.Errors = append(res.Errors, "sweep: "+runErr.Error())
	}
	if s.o.ref == nil {
		return
	}
	for id := range s.o.ref.Sims {
		if _, ran := s.keys[id]; !ran {
			s.keys[id] = ""
			s.failed[id] = "referenced simulation never ran"
		}
	}
	if runErr == nil && res.TableDigest != s.o.ref.Table {
		res.Errors = append(res.Errors, fmt.Sprintf("table: rendered table digest %s, reference %s", res.TableDigest, s.o.ref.Table))
	}
}

// backend resolves one simulation for exp.Runner. It applies the workload
// seed, runs the simulation and checks its result digest.
func (s *sweeper) backend(cfg sim.Config, name string) (res system.Result, err error) {
	cfg.Seed = s.o.seed
	id := name + "/" + configLabel(cfg)
	key := system.Key(cfg, name)
	s.mu.Lock()
	if k, seen := s.keys[id]; seen && k != key {
		s.mu.Unlock()
		return system.Result{}, fmt.Errorf("simulation label %s names two configurations", id)
	}
	s.keys[id] = key
	s.mu.Unlock()

	root := s.tr.begin(id, "sim", s.sweepSp)
	defer s.tr.end(root)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		if err != nil {
			s.fail(id, err.Error())
		}
	}()
	var warm bool
	// The first simulation always takes the mirror so setup_s can stamp its
	// System.Run call; untraced, every other one makes the exact call the
	// exp runner's own backend makes.
	if s.tr != nil || s.first.CompareAndSwap(false, true) {
		res, warm, err = s.mirror(cfg, name, id, root)
	} else {
		res, warm, err = system.RunWorkloadCheckpointed(cfg, name, s.store)
	}
	if err != nil {
		return res, err
	}
	s.check(id, cfg, res, warm, root)
	return res, nil
}

func (s *sweeper) fail(id, why string) {
	s.mu.Lock()
	if _, dup := s.failed[id]; !dup {
		s.failed[id] = why
	}
	s.mu.Unlock()
}

// check digests the canonical JSON encoding of res (encoding/json sorts the
// Metrics map keys) and compares it with the reference.
func (s *sweeper) check(id string, cfg sim.Config, res system.Result, warm bool, parent int) {
	sp := s.tr.begin(id, "result.check", parent)
	defer s.tr.end(sp)
	enc := s.tr.begin(id, "json.Marshal", sp)
	b, err := json.Marshal(res)
	s.tr.end(enc)
	if err != nil {
		s.fail(id, "encode result: "+err.Error())
		return
	}
	d := digest(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.digests[id] = d
	for k, v := range res.Metrics {
		s.counts[k] += v
	}
	s.instrs += float64(res.Instrs)
	s.simNs += float64(res.Cycles) / cfg.CPUFreqGHz
	if warm {
		s.warm++
	}
	if s.o.ref == nil {
		return
	}
	switch want, ok := s.o.ref.Sims[id]; {
	case !ok:
		s.failed[id] = "no reference digest"
	case want != d:
		s.failed[id] = fmt.Sprintf("result digest %s, reference %s", d, want)
	}
}

// mirror is system.RunWorkloadCheckpointed rebuilt from public calls, with a
// span around each call into a layer. Results are digest-checked like every
// other run, which is what proves the mirror faithful.
func (s *sweeper) mirror(cfg sim.Config, name, id string, parent int) (system.Result, bool, error) {
	tr := s.tr
	if s.store == nil || cfg.WarmupCycles == 0 {
		sys, err := s.build(cfg, name, id, parent)
		if err != nil {
			return system.Result{}, false, err
		}
		return s.run(sys, name, id, parent, cfg.WarmupCycles > 0, nil), false, nil
	}
	key := system.CheckpointKey(cfg, name)
	sp := tr.begin(id, "ckpt.Store.Claim", parent)
	img, claimed, err := s.store.Claim(key)
	tr.end(sp)
	if err != nil {
		return system.Result{}, false, err
	}
	if img == nil && !claimed {
		sp = tr.begin(id, "ckpt.Store.Wait", parent)
		img, _, err = s.store.Wait(key)
		tr.end(sp)
		if err != nil {
			return system.Result{}, false, err
		}
	}
	if img != nil {
		sp = tr.begin(id, "system.RestoreSystem", parent)
		sys, rerr := system.RestoreSystem(cfg, name, img)
		tr.end(sp)
		if rerr == nil {
			return s.run(sys, name, id, parent, false, nil), true, nil
		}
	}
	produced := false
	if claimed {
		defer func() {
			if !produced {
				s.store.Abandon(key)
			}
		}()
	}
	sys, err := s.build(cfg, name, id, parent)
	if err != nil {
		return system.Result{}, false, err
	}
	var hook func(*system.System, int)
	if claimed {
		hook = func(sys *system.System, hookSp int) {
			sp := tr.begin(id, "System.EncodeCheckpoint", hookSp)
			img := sys.EncodeCheckpoint()
			tr.end(sp)
			s.mu.Lock()
			s.imageKB = append(s.imageKB, float64(len(img))/1024)
			s.mu.Unlock()
			sp = tr.begin(id, "ckpt.Store.Put", hookSp)
			if s.store.Put(key, img) == nil {
				produced = true
			}
			tr.end(sp)
		}
	}
	return s.run(sys, name, id, parent, true, hook), false, nil
}

func (s *sweeper) build(cfg sim.Config, name, id string, parent int) (*system.System, error) {
	sp := s.tr.begin(id, "workload.ByName", parent)
	wl, err := workload.ByName(name, cfg.Cores)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	cold := !s.builtWls[name]
	s.builtWls[name] = true
	s.mu.Unlock()
	sp = s.tr.begin(id, "system.Build", parent)
	s.tr.markCold(sp, cold)
	sys, err := system.Build(cfg, wl)
	s.tr.end(sp)
	return sys, err
}

// run executes a built or restored system. warmup says the run starts with
// a warmup phase; the barrier hook then splits the Run span into warmup and
// measurement and calls hook (checkpoint capture) inside it.
func (s *sweeper) run(sys *system.System, name, id string, parent int, warmup bool, hook func(*system.System, int)) system.Result {
	tr := s.tr
	runSp := tr.begin(id, "System.Run", parent)
	if warmup && (tr != nil || hook != nil) {
		runStart := tr.startOf(runSp)
		sys.SetBarrierHook(func(sys *system.System) {
			tr.add(id, "run.warmup", runSp, runStart, time.Now())
			hookSp := tr.begin(id, "barrier_hook", runSp)
			if hook != nil {
				hook(sys, hookSp)
			}
			tr.end(hookSp)
		})
	}
	s.runAt.CompareAndSwap(0, time.Now().UnixNano())
	res := sys.Run()
	tr.end(runSp)
	res.Workload = name
	sp := tr.begin(id, "System.Release", parent)
	sys.Release()
	tr.end(sp)
	return res
}

// layerMetrics reduces the spans and counts of a traced sweep to the
// benchmark's per-layer metrics.
func (s *sweeper) layerMetrics(res *sweepResult) {
	self := s.tr.selfTimes()
	layers := map[string]float64{}
	var simHost float64
	var cold, hit, enc, put, claim, restore, marshal []float64
	var runNs float64
	for i, sp := range s.tr.spans {
		d := sp.dur()
		layers[layerOf[sp.Name]] += self[i]
		switch sp.Name {
		case "sim":
			simHost += d
		case "system.Build":
			if sp.Cold {
				cold = append(cold, d*1e3)
			} else {
				hit = append(hit, d*1e3)
			}
		case "System.EncodeCheckpoint":
			enc = append(enc, d*1e3)
		case "ckpt.Store.Put":
			put = append(put, d*1e3)
		case "ckpt.Store.Claim", "ckpt.Store.Wait":
			claim = append(claim, d*1e3)
		case "system.RestoreSystem":
			restore = append(restore, d*1e3)
		case "json.Marshal":
			marshal = append(marshal, d*1e6)
		case "System.Run":
			runNs += self[i] * 1e9
		}
	}
	res.Layers = layers
	res.SimHostS = simHost
	dominant := 0.0
	for _, l := range s.o.spec.Dominant {
		dominant += layers[l]
	}
	c := s.counts
	denied := 0.0
	for k, v := range c {
		if len(k) > len("power.denied.") && k[:len("power.denied.")] == "power.denied." {
			denied += v
		}
	}
	m := map[string]float64{
		"system.build_cold_ms":          median(cold),
		"system.build_hit_ms":           median(hit),
		"system.build_share":            ratio(layers["system.build"], simHost),
		"run.measure_s":                 layers["run.measure"],
		"run.ns_per_event":              ratio(runNs, c["sim.events_run"]),
		"run.ns_per_write":              ratio(runNs, c["mem.writes.done"]),
		"run.ns_per_kinstr":             ratio(runNs, s.instrs/1000),
		"run.sim_ns_per_host_ns":        ratio(s.simNs, runNs),
		"core.admit_ratio":              ratio(c["core.scheduler.started"], c["core.scheduler.started"]+c["core.scheduler.admit_failures"]),
		"power.grant_ratio":             ratio(c["power.grants"], c["power.grants"]+denied),
		"run.warmup_s":                  layers["run.warmup"],
		"ckpt.encode_ms":                median(enc),
		"ckpt.image_kb":                 median(s.imageKB),
		"ckpt.put_ms":                   median(put),
		"ckpt.claim_ms":                 median(claim),
		"ckpt.restore_ms":               median(restore),
		"ckpt.warm_ratio":               ratio(float64(s.warm), float64(len(s.keys))),
		"exp.worker_busy":               ratio(simHost, float64(s.o.spec.Workers)*res.SweepS),
		"result.encode_us":              median(marshal),
		"trace.uncovered_s":             layers["uncovered"],
		"trace.dominant_share":          ratio(dominant, simHost),
		"sim.events_run":                c["sim.events_run"],
		"mem.writes.done":               c["mem.writes.done"],
		"mem.reads.demand":              c["mem.reads.demand"],
		"mem.wc.cancels":                c["mem.wc.cancels"],
		"mem.wp.pauses":                 c["mem.wp.pauses"],
		"core.scheduler.started":        c["core.scheduler.started"],
		"core.scheduler.admit_failures": c["core.scheduler.admit_failures"],
		"power.grants":                  c["power.grants"],
	}
	for k, v := range res.Runtime {
		m[k] = v
	}
	res.PerLayer = m
}

// gmeans reads the gmean row of a speedup or throughput table.
func gmeans(t *stats.Table) map[string]float64 {
	out := map[string]float64{}
	for i := 0; i < t.NumRows(); i++ {
		row := t.Row(i)
		if row[0] != "gmean" {
			continue
		}
		for j, cell := range row[1:] {
			if v, err := strconv.ParseFloat(cell, 64); err == nil && j+1 < len(t.Columns) {
				out[t.Columns[j+1]] = v
			}
		}
	}
	return out
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rssPeakMB is the process's peak resident set (Linux reports ru_maxrss in KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
