package client

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fpb/internal/exp"
	"fpb/internal/obs"
	"fpb/internal/serve"
	"fpb/internal/sim"
	"fpb/internal/system"
)

func startDaemon(t *testing.T, cfg serve.Config) (*serve.Server, *Client) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, New(ts.URL)
}

func fake(sims *atomic.Int64, delay time.Duration) serve.SimulateFunc {
	return func(cfg sim.Config, wl string) (system.Result, error) {
		sims.Add(1)
		time.Sleep(delay)
		return system.Result{Workload: wl, CPI: float64(cfg.Seed) + 1}, nil
	}
}

func TestClientRoundTrip(t *testing.T) {
	var sims atomic.Int64
	_, c := startDaemon(t, serve.Config{Workers: 2, Simulate: fake(&sims, 0)})

	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health: %v", err)
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = 11
	st, err := c.Submit(context.Background(), serve.JobSpec{Workload: "lbm_m", Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res := st.Result; res == nil || res.Workload != "lbm_m" || res.CPI != 12 {
		t.Errorf("res = %+v", res)
	}
}

// oneMemberFleet starts one daemon and returns a one-member fleet over it.
func oneMemberFleet(t *testing.T, cfg serve.Config) *Fleet {
	t.Helper()
	_, _, f := fleetDaemons(t, 1, func(int) serve.Config { return cfg }, FleetConfig{RetryBudget: 30 * time.Second})
	return f
}

func TestClientRetriesQueueFull(t *testing.T) {
	var sims atomic.Int64
	c := oneMemberFleet(t, serve.Config{
		Workers:    1,
		QueueDepth: 1,
		RetryAfter: time.Millisecond, // advertised exactly; the fleet waits it out
		Simulate:   fake(&sims, 50*time.Millisecond),
	})

	// More concurrent distinct jobs than worker+queue slots: some submits
	// must see 429 and retry until the queue drains.
	const jobs = 6
	errc := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		go func(seed uint64) {
			cfg := sim.DefaultConfig()
			cfg.Seed = seed
			_, err := c.Run(cfg, "mcf_m")
			errc <- err
		}(uint64(i + 1))
	}
	for i := 0; i < jobs; i++ {
		if err := <-errc; err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	if sims.Load() != jobs {
		t.Errorf("simulations = %d, want %d", sims.Load(), jobs)
	}
}

// TestRunnerOffloadsToDaemon wires a one-member fleet into exp.Runner as its
// Backend: a figure-style Prewarm against a shared daemon must simulate each
// distinct pair exactly once and serve Runner reads from the remote results.
func TestRunnerOffloadsToDaemon(t *testing.T) {
	var sims atomic.Int64
	c := oneMemberFleet(t, serve.Config{Workers: 4, QueueDepth: 32, Simulate: fake(&sims, 0)})

	r := exp.NewRunner(exp.Options{
		InstrPerCore: 1000,
		Workloads:    []string{"mcf_m", "lbm_m"},
		Workers:      4,
		Backend:      c.Run,
	})
	base := r.BaseConfig()
	mod := base
	mod.Seed = 99
	if err := r.Prewarm([]sim.Config{base, mod}, []string{"mcf_m", "lbm_m"}); err != nil {
		t.Fatal(err)
	}
	// Every Run below must be a warm hit — no new daemon simulations.
	for _, cfg := range []sim.Config{base, mod} {
		for _, wl := range []string{"mcf_m", "lbm_m"} {
			res, err := r.Run(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Workload != wl {
				t.Errorf("remote result for %s: %+v", wl, res)
			}
		}
	}
	if sims.Load() != 4 {
		t.Errorf("daemon ran %d simulations, want 4", sims.Load())
	}
	if r.Simulations() != 4 {
		t.Errorf("runner recorded %d backend calls, want 4", r.Simulations())
	}
}

// TestClientAndRunnerTelemetry: an instrumented one-member fleet and an exp.Runner
// sharing one registry record requests, 429 retries, backend calls and
// latency histograms — the caller-side half of the fleet observability
// story.
func TestClientAndRunnerTelemetry(t *testing.T) {
	var sims atomic.Int64
	c := oneMemberFleet(t, serve.Config{
		Workers:    1,
		QueueDepth: 1,
		RetryAfter: time.Millisecond,
		Simulate:   fake(&sims, 20*time.Millisecond),
	})
	reg := obs.NewRegistry()
	c.Instrument(reg)

	r := exp.NewRunner(exp.Options{
		InstrPerCore: 1000,
		Workloads:    []string{"mcf_m"},
		Workers:      4,
		Backend:      c.Run,
		Metrics:      reg,
	})
	// 4 distinct configs against 1 worker + 1 queue slot: some submissions
	// must hit 429 pushback and retry.
	cfgs := make([]sim.Config, 4)
	for i := range cfgs {
		cfgs[i] = r.BaseConfig()
		cfgs[i].Seed = uint64(i + 1)
	}
	if err := r.Prewarm(cfgs, []string{"mcf_m"}); err != nil {
		t.Fatal(err)
	}

	if v, _ := reg.Value("client.requests"); v != 4 {
		t.Errorf("client.requests = %v, want 4", v)
	}
	if v, _ := reg.Value("client.retries_429"); v < 1 {
		t.Errorf("client.retries_429 = %v, want >= 1 (1 worker, 1 slot, 4 jobs)", v)
	}
	if v, _ := reg.Value("client.errors"); v != 0 {
		t.Errorf("client.errors = %v, want 0", v)
	}
	if v, _ := reg.Value("exp.sims"); v != 4 {
		t.Errorf("exp.sims = %v, want 4", v)
	}
	if n := reg.Histogram("client.request_ms", nil).Count(); n != 4 {
		t.Errorf("client.request_ms count = %d, want 4", n)
	}
	if n := reg.Histogram("exp.backend_ms", nil).Count(); n != 4 {
		t.Errorf("exp.backend_ms count = %d, want 4", n)
	}
}
