package exp

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpb/internal/sim"
	"fpb/internal/stats"
	"fpb/internal/system"
)

// TestMemoizationCoalescesConcurrentRuns: N concurrent Run calls with an
// identical (config, workload) pair must simulate exactly once and all
// observe the same result.
func TestMemoizationCoalescesConcurrentRuns(t *testing.T) {
	var backendCalls atomic.Uint64
	r := NewRunner(Options{
		InstrPerCore: 1000,
		Backend: func(cfg sim.Config, wl string) (system.Result, error) {
			backendCalls.Add(1)
			// Widen the window in which a racy implementation would
			// start a duplicate simulation.
			time.Sleep(20 * time.Millisecond)
			return system.Result{Workload: wl, CPI: float64(cfg.Seed) + 3.5}, nil
		},
	})

	const n = 16
	cfg := r.BaseConfig()
	results := make([]system.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(cfg, "mcf_m")
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	if got := backendCalls.Load(); got != 1 {
		t.Fatalf("%d concurrent identical Run calls simulated %d times, want exactly 1", n, got)
	}
	if got := r.Simulations(); got != 1 {
		t.Errorf("Runner.Simulations() = %d, want 1", got)
	}
	for i, res := range results {
		if !reflect.DeepEqual(res, results[0]) {
			t.Fatalf("result %d differs: %+v vs %+v", i, res, results[0])
		}
	}

	// A different pair still simulates.
	other := cfg
	other.Seed++
	if _, err := r.Run(other, "mcf_m"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(cfg, "lbm_m"); err != nil {
		t.Fatal(err)
	}
	if got := r.Simulations(); got != 3 {
		t.Errorf("after two distinct runs Simulations() = %d, want 3", got)
	}
}

// TestPrewarmHonorsWorkersOption: Options.Workers bounds Prewarm's
// parallelism (the pre-option behavior was a hard-coded GOMAXPROCS).
func TestPrewarmHonorsWorkersOption(t *testing.T) {
	var cur, peak atomic.Int64
	r := NewRunner(Options{
		InstrPerCore: 1000,
		Workers:      2,
		Backend: func(cfg sim.Config, wl string) (system.Result, error) {
			if c := cur.Add(1); c > peak.Load() {
				peak.Store(c)
			}
			time.Sleep(10 * time.Millisecond)
			cur.Add(-1)
			return system.Result{Workload: wl}, nil
		},
	})
	cfgs := make([]sim.Config, 4)
	for i := range cfgs {
		cfgs[i] = r.BaseConfig()
		cfgs[i].Seed = uint64(i + 1)
	}
	if err := r.Prewarm(cfgs, []string{"mcf_m", "lbm_m"}); err != nil {
		t.Fatal(err)
	}
	if r.Simulations() != 8 {
		t.Errorf("Prewarm ran %d simulations, want 8", r.Simulations())
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("Prewarm peak parallelism %d exceeds Workers=2", p)
	}
}

// TestRunRetriesBackendOnce: a backend that fails its first call and
// succeeds on the retry must yield a result, not an error — one transient
// remote failure may not kill a figure run.
func TestRunRetriesBackendOnce(t *testing.T) {
	var calls atomic.Uint64
	r := NewRunner(Options{
		InstrPerCore: 1000,
		Backend: func(cfg sim.Config, wl string) (system.Result, error) {
			if calls.Add(1) == 1 {
				return system.Result{}, errors.New("daemon restarting")
			}
			return system.Result{Workload: wl, CPI: 2}, nil
		},
	})
	res, err := r.Run(r.BaseConfig(), "mcf_m")
	if err != nil {
		t.Fatalf("Run after one transient failure: %v", err)
	}
	if res.CPI != 2 {
		t.Errorf("retried result = %+v", res)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("backend called %d times, want 2 (original + retry)", got)
	}
}

// TestRunMemoizesBackendError: a pair whose backend fails twice returns a
// wrapped error carrying the workload, and repeated Run calls for the same
// pair serve the memoized error without hitting the backend again.
func TestRunMemoizesBackendError(t *testing.T) {
	var calls atomic.Uint64
	sentinel := errors.New("connection refused")
	r := NewRunner(Options{
		InstrPerCore: 1000,
		Backend: func(cfg sim.Config, wl string) (system.Result, error) {
			calls.Add(1)
			return system.Result{}, sentinel
		},
	})
	cfg := r.BaseConfig()
	_, err := r.Run(cfg, "mcf_m")
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run error = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "mcf_m") {
		t.Errorf("error %q does not name the workload", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("backend called %d times, want 2 (original + retry)", got)
	}
	if _, err := r.Run(cfg, "mcf_m"); !errors.Is(err, sentinel) {
		t.Fatalf("second Run error = %v, want memoized sentinel", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("backend re-called after memoized failure: %d calls", got)
	}
	if r.Simulations() != 0 {
		t.Errorf("failed runs counted as simulations: %d", r.Simulations())
	}
}

// TestPrewarmReportsFirstErrorAndFinishesBatch: one failing pair must not
// abort the rest of the batch (the survivors stay warm for later reads),
// but Prewarm has to surface the failure.
func TestPrewarmReportsFirstErrorAndFinishesBatch(t *testing.T) {
	var calls atomic.Uint64
	r := NewRunner(Options{
		InstrPerCore: 1000,
		Workers:      2,
		Backend: func(cfg sim.Config, wl string) (system.Result, error) {
			calls.Add(1)
			if wl == "lbm_m" {
				return system.Result{}, errors.New("boom")
			}
			return system.Result{Workload: wl}, nil
		},
	})
	err := r.Prewarm([]sim.Config{r.BaseConfig()}, []string{"mcf_m", "lbm_m", "xal_m"})
	if err == nil || !strings.Contains(err.Error(), "lbm_m") {
		t.Fatalf("Prewarm error = %v, want failure naming lbm_m", err)
	}
	// mcf_m and xal_m simulated once each; lbm_m tried twice (retry).
	if got := calls.Load(); got != 4 {
		t.Errorf("backend calls = %d, want 4", got)
	}
	if r.Simulations() != 2 {
		t.Errorf("Simulations() = %d, want 2 surviving pairs", r.Simulations())
	}
	// The surviving pairs are warm: reading them adds no backend calls.
	if _, err := r.Run(r.BaseConfig(), "xal_m"); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("warm read hit the backend: %d calls", got)
	}
}

// TestPrewarmDispatchNotBlockedBySlowSimulations: with every worker slot
// held by slow simulations, the dispatch loop must still finish scanning
// the batch (cached pairs are skipped before any slot is acquired). The
// pre-fix dispatcher acquired the semaphore in the loop, so a full batch
// scan waited on the slowest simulations.
func TestPrewarmDispatchNotBlockedBySlowSimulations(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	r := NewRunner(Options{
		InstrPerCore: 1000,
		Workers:      1,
		Backend: func(cfg sim.Config, wl string) (system.Result, error) {
			started <- struct{}{}
			<-release
			return system.Result{Workload: wl}, nil
		},
	})
	cfgs := make([]sim.Config, 4)
	for i := range cfgs {
		cfgs[i] = r.BaseConfig()
		cfgs[i].Seed = uint64(i + 1)
	}
	done := make(chan error, 1)
	go func() { done <- r.Prewarm(cfgs, []string{"mcf_m"}) }()
	<-started // one simulation holds the only slot
	// The dispatcher must already have spawned every remaining worker:
	// none of them blocks dispatch, they all wait on the semaphore.
	// Releasing the backend lets the batch drain one at a time.
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r.Simulations() != 4 {
		t.Errorf("Prewarm ran %d simulations, want 4", r.Simulations())
	}
}

// TestRunnerWarmStartSweep is the end-to-end warm-start contract at the
// experiment layer: a sweep of schemes sharing one warmup prefix simulates
// the prefix once per workload, warm-starts every other grid point, and
// renders a table byte-identical to a checkpoint-free runner's.
func TestRunnerWarmStartSweep(t *testing.T) {
	norm := Variant{Label: "DIMM+chip", Mutate: func(c *sim.Config) { c.Scheme = sim.SchemeDIMMChip }}
	variants := []Variant{
		{Label: "GCP", Mutate: func(c *sim.Config) { c.Scheme = sim.SchemeGCP }},
		{Label: "GCP+IPM", Mutate: func(c *sim.Config) { c.Scheme = sim.SchemeGCPIPM }},
		{Label: "FPB", Mutate: func(c *sim.Config) { c.Scheme = sim.SchemeGCPIPMMR }},
	}
	fig18, ok := ByID("fig18")
	if !ok {
		t.Fatal("fig18 not registered")
	}
	cases := []struct {
		name      string
		opt       Options
		run       func(*Runner) (*stats.Table, error)
		sims      uint64 // simulations the sweep runs
		warmStart uint64 // of those, restored from a checkpoint
	}{
		{
			name: "speedup-table",
			opt:  Options{InstrPerCore: 3000, Workloads: []string{"mcf_m"}, WarmupCycles: 40_000},
			run: func(r *Runner) (*stats.Table, error) {
				return r.SpeedupTable("t", norm, variants)
			},
			sims: 4, warmStart: 3,
		},
		{
			// The registered Fig. 18: 5 schemes x 2 workloads, so each
			// workload's producer runs warmup and its 4 siblings restore.
			name: "fig18",
			opt:  Options{InstrPerCore: 2000, Workloads: []string{"mcf_m", "mix_1"}, WarmupCycles: 500_000},
			run:  fig18.Run,
			sims: 10, warmStart: 8,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			warmOpt := tc.opt
			warmOpt.CheckpointDir = t.TempDir()
			warm := NewRunner(warmOpt)
			got, err := tc.run(warm)
			if err != nil {
				t.Fatal(err)
			}
			if sims := warm.Simulations(); sims != tc.sims {
				t.Fatalf("sweep ran %d simulations, want %d", sims, tc.sims)
			}
			if ws := warm.WarmStarts(); ws != tc.warmStart {
				t.Errorf("WarmStarts() = %d, want %d", ws, tc.warmStart)
			}

			cold := NewRunner(tc.opt)
			want, err := tc.run(cold)
			if err != nil {
				t.Fatal(err)
			}
			if ws := cold.WarmStarts(); ws != 0 {
				t.Errorf("checkpoint-free runner reported %d warm starts", ws)
			}
			if got.String() != want.String() {
				t.Errorf("warm-started table differs from cold table:\n cold:\n%s\n warm:\n%s", want, got)
			}
		})
	}
}
