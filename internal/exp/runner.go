// Package exp defines one experiment per table and figure of the paper's
// evaluation (Figures 2, 4, 10–23 and Table 3). Each experiment runs the
// required simulations — memoized and in parallel across workloads and
// schemes — and renders the same rows/series the paper reports, normalized
// the same way (speedups over DIMM+chip for Section 6, over Ideal for
// Figure 4).
package exp

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fpb/internal/ckpt"
	"fpb/internal/obs"
	"fpb/internal/sim"
	"fpb/internal/stats"
	"fpb/internal/system"
)

// Workloads is the evaluation order of the 13 simulated workloads.
var Workloads = []string{
	"ast_m", "bwa_m", "lbm_m", "les_m", "mcf_m", "xal_m",
	"mum_m", "tig_m", "qso_m", "cop_m", "mix_1", "mix_2", "mix_3",
}

// Backend resolves one (config, workload) simulation. The default (nil)
// backend is in-process system.RunWorkloadCheckpointed against the
// Options.CheckpointDir store; client.Fleet.Run plugs in a fleet of fpbd
// daemons instead, turning figure regeneration into mostly cache hits
// against their persistent stores.
type Backend func(cfg sim.Config, wl string) (system.Result, error)

// Options scales an experiment run.
type Options struct {
	// InstrPerCore is the per-core instruction budget of every
	// simulation (default 100k; benchmarks use less, full paper-style
	// runs more).
	InstrPerCore uint64
	// Workloads restricts the workload set (default: all 13).
	Workloads []string
	// MetricsDir, when non-empty, receives one metrics-registry JSON dump
	// per simulated (config, workload) pair. Filenames are deterministic:
	// <workload>_<scheme>_<fnv64a of the config>.json.
	MetricsDir string
	// Workers bounds Prewarm's simulation parallelism (default:
	// GOMAXPROCS). With a remote Backend it bounds in-flight requests
	// instead, since the daemon runs the actual simulations.
	Workers int
	// Backend overrides how simulations run; nil means in-process.
	Backend Backend
	// WarmupCycles/WarmupScheme declare a warmup phase on BaseConfig
	// (sim.Config.WarmupCycles/WarmupScheme): every simulation runs that
	// many cycles under the warmup scheme before measurement begins. They
	// are applied to the base config, so every figure variant shares the
	// declaration — which is what makes their warmup prefixes shared.
	// Zero disables warmup.
	WarmupCycles uint64
	WarmupScheme sim.Scheme
	// CheckpointDir, when non-empty, warm-starts in-process simulations:
	// each distinct warmup prefix (system.CheckpointKey) is simulated once,
	// checkpointed at the measurement barrier into this directory, and every
	// later grid point sharing the prefix restores the image instead of
	// re-running warmup. Results are bit-identical either way. Ignored with
	// a remote Backend (the daemon keeps its own store).
	CheckpointDir string
	// Metrics, when non-nil, receives the runner's execution telemetry:
	// simulations run, backend retries/failures, and backend latency.
	// These describe how an experiment batch executed, never its figures.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.InstrPerCore == 0 {
		o.InstrPerCore = 100_000
	}
	if len(o.Workloads) == 0 {
		o.Workloads = Workloads
	}
	return o
}

// Experiment is one reproducible table/figure. Run returns an error when a
// simulation backend fails (e.g. a remote fpbd daemon becomes unreachable);
// the table is only valid when the error is nil.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes the result the paper reports for this experiment
	// (used by EXPERIMENTS.md generation).
	Paper string
	Run   func(r *Runner) (*stats.Table, error)
}

// Runner executes simulations with memoization; experiments share it so
// common baselines (e.g. DIMM+chip) run once. Memoization is
// singleflight: concurrent Run calls for the same (config, workload) pair
// share one simulation instead of duplicating it.
type Runner struct {
	opt   Options
	store *ckpt.Store // warm-start checkpoint store; nil disables
	mu    sync.Mutex
	cache map[key]*entry
	sims  uint64 // simulations actually executed (not served from cache)
	warms uint64 // executed simulations that warm-started from a checkpoint

	// Telemetry (nil-safe no-ops without Options.Metrics).
	cSims      *obs.Counter
	cWarms     *obs.Counter
	cRetries   *obs.Counter
	cFailures  *obs.Counter
	hBackendMs *obs.Histogram
}

type key struct {
	cfg sim.Config
	wl  string
}

// entry is one memoized simulation; once makes concurrent first callers
// collapse onto a single execution. A failed execution memoizes its error
// the same way a successful one memoizes its result: the backend already
// got a retry (see Run), so hammering it with every downstream read of the
// same pair would only amplify the outage.
type entry struct {
	once sync.Once
	res  system.Result
	err  error
}

// NewRunner builds a runner for the options, creating MetricsDir if set.
func NewRunner(opt Options) *Runner {
	opt = opt.withDefaults()
	if opt.MetricsDir != "" {
		if err := os.MkdirAll(opt.MetricsDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "exp: metrics dir: %v\n", err)
			opt.MetricsDir = ""
		}
	}
	r := &Runner{opt: opt, cache: make(map[key]*entry)}
	if opt.CheckpointDir != "" {
		st, err := ckpt.NewStore(opt.CheckpointDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "exp: checkpoint store disabled: %v\n", err)
		} else {
			r.store = st
		}
	}
	if reg := opt.Metrics; reg != nil {
		r.cSims = reg.Counter("exp.sims")
		r.cWarms = reg.Counter("exp.warm_starts")
		r.cRetries = reg.Counter("exp.backend.retries")
		r.cFailures = reg.Counter("exp.backend.failures")
		r.hBackendMs = reg.Histogram("exp.backend_ms", obs.LatencyBucketsMs)
		reg.SetHelp("exp.sims", "simulations executed (memoization misses)")
		reg.SetHelp("exp.warm_starts", "executed simulations restored from a warmup checkpoint")
		reg.SetHelp("exp.backend.retries", "backend calls retried after a transient failure")
		reg.SetHelp("exp.backend.failures", "simulations that failed even after the retry")
		reg.SetHelp("exp.backend_ms", "backend call latency per fresh simulation (ms)")
	}
	return r
}

// Opt returns the effective options.
func (r *Runner) Opt() Options { return r.opt }

// BaseConfig is the Table 1 configuration at the runner's scale.
func (r *Runner) BaseConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.InstrPerCore = r.opt.InstrPerCore
	cfg.WarmupCycles = r.opt.WarmupCycles
	cfg.WarmupScheme = r.opt.WarmupScheme
	return cfg
}

// Run simulates one (config, workload) pair, memoized. Concurrent calls
// with an identical pair block on one shared simulation; every other pair
// proceeds in parallel.
//
// A backend failure is retried once (remote daemons drop requests across
// restarts; the retry absorbs exactly that class of transient), then
// memoized and returned with the workload and scheme in the error chain so
// the caller can tell which simulation of a figure died.
func (r *Runner) Run(cfg sim.Config, wl string) (system.Result, error) {
	k := key{cfg: cfg, wl: wl}
	r.mu.Lock()
	e, ok := r.cache[k]
	if !ok {
		e = &entry{}
		r.cache[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		run := r.opt.Backend
		if run == nil {
			// In-process default: route through the checkpoint store, so
			// grid points sharing a warmup prefix simulate it once. The
			// store's claim/wait protocol coordinates concurrent Prewarm
			// workers; with a nil store this is plain RunWorkload.
			run = func(cfg sim.Config, wl string) (system.Result, error) {
				res, warmed, err := system.RunWorkloadCheckpointed(cfg, wl, r.store)
				if warmed {
					r.cWarms.Inc()
					r.mu.Lock()
					r.warms++
					r.mu.Unlock()
				}
				return res, err
			}
		}
		start := time.Now()
		res, err := run(cfg, wl)
		if err != nil {
			r.cRetries.Inc()
			res, err = run(cfg, wl) // retry once
		}
		r.hBackendMs.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
		if err != nil {
			r.cFailures.Inc()
			e.err = fmt.Errorf("exp: running %s (scheme %v): %w", wl, cfg.Scheme, err)
			return
		}
		r.dumpMetrics(cfg, wl, res)
		r.cSims.Inc()
		r.mu.Lock()
		r.sims++
		r.mu.Unlock()
		e.res = res
	})
	return e.res, e.err
}

// Simulations reports how many simulations actually executed (cache misses);
// tests use it to prove memoization coalesces duplicate work.
func (r *Runner) Simulations() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sims
}

// WarmStarts reports how many executed simulations restored their warmup
// phase from a checkpoint instead of simulating it.
func (r *Runner) WarmStarts() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.warms
}

// dumpMetrics writes one metrics-registry snapshot per fresh simulation to
// Options.MetricsDir. The filename hashes the full config so every distinct
// variant of a workload gets its own stable file across runs. Dump failures
// don't abort the experiment; they are reported once per file on stderr.
func (r *Runner) dumpMetrics(cfg sim.Config, wl string, res system.Result) {
	if r.opt.MetricsDir == "" || len(res.Metrics) == 0 {
		return
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", cfg)
	scheme := strings.NewReplacer("+", "-", "/", "-", " ", "-").Replace(res.Scheme)
	path := filepath.Join(r.opt.MetricsDir,
		fmt.Sprintf("%s_%s_%016x.json", wl, scheme, h.Sum64()))
	f, err := os.Create(path)
	if err == nil {
		err = obs.EncodeSeries(f, res.Metrics)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "exp: metrics dump %s: %v\n", path, err)
	}
}

// Prewarm runs all (config, workload) combinations in parallel, bounded by
// Options.Workers (GOMAXPROCS when unset), so subsequent Run calls hit the
// cache. It returns the first simulation error (the rest of the batch still
// completes, so every surviving pair is warm).
//
// The semaphore is acquired inside the worker goroutine: the dispatch loop
// itself never blocks on a slot, so already-cached pairs are skipped
// immediately even while slow simulations hold every slot.
func (r *Runner) Prewarm(cfgs []sim.Config, wls []string) error {
	workers := r.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for _, cfg := range cfgs {
		for _, wl := range wls {
			cfg, wl := cfg, wl
			r.mu.Lock()
			_, cached := r.cache[key{cfg: cfg, wl: wl}]
			r.mu.Unlock()
			if cached {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if _, err := r.Run(cfg, wl); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	return firstErr
}

// systemResult shortens metric-closure signatures in the figure files.
type systemResult = system.Result

// Variant is one labeled configuration column of a figure.
type Variant struct {
	Label  string
	Mutate func(*sim.Config)
}

func (r *Runner) cfgOf(v Variant) sim.Config {
	cfg := r.BaseConfig()
	if v.Mutate != nil {
		v.Mutate(&cfg)
	}
	return cfg
}

// SpeedupTable renders per-workload speedups of each variant over the norm
// variant (Eq. 7: CPI_norm / CPI_variant), plus a gmean row — the layout of
// every speedup figure in the paper.
func (r *Runner) SpeedupTable(title string, norm Variant, variants []Variant) (*stats.Table, error) {
	cfgs := []sim.Config{r.cfgOf(norm)}
	for _, v := range variants {
		cfgs = append(cfgs, r.cfgOf(v))
	}
	if err := r.Prewarm(cfgs, r.opt.Workloads); err != nil {
		return nil, err
	}

	cols := []string{"workload"}
	for _, v := range variants {
		cols = append(cols, v.Label)
	}
	t := stats.NewTable(title, cols...)
	perVariant := make([][]float64, len(variants))
	for _, wl := range r.opt.Workloads {
		base, err := r.Run(r.cfgOf(norm), wl)
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, len(variants))
		for i, v := range variants {
			res, err := r.Run(r.cfgOf(v), wl)
			if err != nil {
				return nil, err
			}
			s := system.Speedup(base, res)
			row = append(row, s)
			perVariant[i] = append(perVariant[i], s)
		}
		t.AddRow(wl, row...)
	}
	gmeans := make([]float64, len(variants))
	for i := range variants {
		gmeans[i] = stats.GeoMean(perVariant[i])
	}
	t.AddRow("gmean", gmeans...)
	return t, nil
}

// MetricTable renders an arbitrary per-workload metric for each variant,
// with an aggregate row computed by agg (e.g. max for Fig. 13, mean for
// Fig. 14).
func (r *Runner) MetricTable(title string, variants []Variant,
	metric func(system.Result) float64, aggLabel string,
	agg func([]float64) float64) (*stats.Table, error) {
	cfgs := make([]sim.Config, 0, len(variants))
	for _, v := range variants {
		cfgs = append(cfgs, r.cfgOf(v))
	}
	if err := r.Prewarm(cfgs, r.opt.Workloads); err != nil {
		return nil, err
	}

	cols := []string{"workload"}
	for _, v := range variants {
		cols = append(cols, v.Label)
	}
	t := stats.NewTable(title, cols...)
	perVariant := make([][]float64, len(variants))
	for _, wl := range r.opt.Workloads {
		row := make([]float64, 0, len(variants))
		for i, v := range variants {
			res, err := r.Run(r.cfgOf(v), wl)
			if err != nil {
				return nil, err
			}
			m := metric(res)
			row = append(row, m)
			perVariant[i] = append(perVariant[i], m)
		}
		t.AddRow(wl, row...)
	}
	aggs := make([]float64, len(variants))
	for i := range perVariant {
		aggs[i] = agg(perVariant[i])
	}
	t.AddRow(aggLabel, aggs...)
	return t, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// registry is populated by the figure files' init functions.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// paperOrder fixes the presentation order independent of init order.
var paperOrder = []string{
	"fig2", "fig4", "fig10", "fig11", "fig12", "fig13", "tab3", "fig14",
	"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
	"fig22", "fig23", "abl-gcpsize", "abl-mrtrigger", "abl-setratio", "abl-halfstripe",
}

// All returns every experiment in paper order (unlisted experiments come
// last in registration order).
func All() []Experiment {
	rank := make(map[string]int, len(paperOrder))
	for i, id := range paperOrder {
		rank[id] = i
	}
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i].ID]
		rj, jok := rank[out[j].ID]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		}
		return false
	})
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
