package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpb/internal/obs"
	"fpb/internal/serve"
	"fpb/internal/sim"
	"fpb/internal/system"
)

func TestRetryDelayJitterBounds(t *testing.T) {
	hint := 2 * time.Second
	for i := 0; i < 1000; i++ {
		d := RetryDelay(hint)
		if d < hint/2 || d > hint {
			t.Fatalf("RetryDelay(%v) = %v outside [%v, %v]", hint, d, hint/2, hint)
		}
	}
	// No hint: jitter over the default.
	for i := 0; i < 1000; i++ {
		d := RetryDelay(0)
		if d < defaultRetryDelay/2 || d > defaultRetryDelay {
			t.Fatalf("RetryDelay(0) = %v outside [%v, %v]", d, defaultRetryDelay/2, defaultRetryDelay)
		}
	}
}

func TestParseRetryAfterExact(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"1", time.Second},
		{"30", 30 * time.Second},
		{"0.25", 250 * time.Millisecond}, // fractional: our server's exact sub-second form
		{"garbage", 0},
		{"-5", 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// HTTP-date form.
	future := time.Now().Add(10 * time.Second).UTC().Format("Mon, 02 Jan 2006 15:04:05 GMT")
	if got := parseRetryAfter(future); got < 8*time.Second || got > 10*time.Second {
		t.Errorf("parseRetryAfter(http-date) = %v, want ~10s", got)
	}
}

// TestServerAdvertisesExactRetryAfter checks the server emits a fractional
// Retry-After for sub-second configs and the client honors it: the Submit
// error's After matches the configured value exactly.
func TestServerAdvertisesExactRetryAfter(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s, err := serve.New(serve.Config{
		Workers: 1, QueueDepth: 1, RetryAfter: 250 * time.Millisecond,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			<-block
			return system.Result{Workload: wl}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	// Cleanup (not defer): it must run AFTER the deferred close(block)
	// releases the in-flight handlers ts.Close waits for.
	t.Cleanup(ts.Close)
	c := New(ts.URL)

	// Fill the worker and the queue with async submissions (sync ones would
	// block this goroutine on the never-finishing fake simulation), then
	// confirm saturation via /healthz before probing for the 429.
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"workload":"mix_1","seed":%d}`, i+1)
		resp, err := http.Post(ts.URL+"/v1/jobs?async=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			QueueDepth int `json:"queue_depth"`
			Busy       int `json:"busy"`
		}
		jerr := json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if jerr == nil && h.Busy == 1 && h.QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never saturated (busy=%d depth=%d)", h.Busy, h.QueueDepth)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cfg := sim.DefaultConfig()
	cfg.Seed = 99
	_, err = c.Submit(context.Background(), serve.JobSpec{Workload: "mix_1", Config: &cfg})
	busy, ok := err.(*BusyError)
	if !ok {
		t.Fatalf("expected BusyError from saturated daemon, got %v", err)
	}
	if busy.After != 250*time.Millisecond {
		t.Fatalf("BusyError.After = %v, want exactly 250ms", busy.After)
	}
}

// fleetDaemons starts n daemons with deterministic fake simulations and
// returns their servers, test listeners, and a fleet over them.
func fleetDaemons(t *testing.T, n int, cfgf func(i int) serve.Config, fc FleetConfig) ([]*serve.Server, []*httptest.Server, *Fleet) {
	t.Helper()
	servers := make([]*serve.Server, n)
	tss := make([]*httptest.Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := serve.New(cfgf(i))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(func() { ts.Close(); s.Drain() })
		servers[i], tss[i], addrs[i] = s, ts, ts.URL
	}
	f, err := NewFleet(addrs, fc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return servers, tss, f
}

// deterministicSim returns a Simulate func whose Result depends only on the
// job — never on which node ran it — mirroring the real engine's contract.
func deterministicSim(count *atomic.Int64) serve.SimulateFunc {
	return func(cfg sim.Config, wl string) (system.Result, error) {
		count.Add(1)
		return system.Result{Workload: wl, CPI: float64(cfg.Seed) * 2, Scheme: cfg.Scheme.String()}, nil
	}
}

func TestFleetRoutesToRingOwner(t *testing.T) {
	counts := make([]atomic.Int64, 3)
	_, tss, f := fleetDaemons(t, 3, func(i int) serve.Config {
		return serve.Config{Workers: 1, Simulate: deterministicSim(&counts[i])}
	}, FleetConfig{})

	// Every distinct job lands on its ring owner; re-running the same jobs
	// hits the same nodes (deterministic placement).
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := sim.DefaultConfig()
		cfg.Seed = seed
		owner := f.Owners(cfg, "mix_1")[0]
		res, err := f.Run(cfg, "mix_1")
		if err != nil {
			t.Fatal(err)
		}
		if res.CPI != float64(seed)*2 {
			t.Fatalf("seed %d: CPI = %v", seed, res.CPI)
		}
		// The owner must be one of the three started daemons.
		found := false
		for _, ts := range tss {
			if Normalize(ts.URL) == owner {
				found = true
			}
		}
		if !found {
			t.Fatalf("owner %q is not a fleet member", owner)
		}
	}
	total := counts[0].Load() + counts[1].Load() + counts[2].Load()
	if total != 8 {
		t.Fatalf("fleet simulated %d jobs, want 8", total)
	}
}

func TestFleetFailsOverToReplicaOnNodeDeath(t *testing.T) {
	counts := make([]atomic.Int64, 3)
	_, tss, f := fleetDaemons(t, 3, func(i int) serve.Config {
		return serve.Config{Workers: 1, Simulate: deterministicSim(&counts[i])}
	}, FleetConfig{Cooldown: time.Minute})
	reg := obs.NewRegistry()
	f.Instrument(reg)

	cfg := sim.DefaultConfig()
	cfg.Seed = 7
	owner := f.Owners(cfg, "lbm_m")[0]

	// Kill the primary owner of this key.
	for _, ts := range tss {
		if Normalize(ts.URL) == owner {
			ts.CloseClientConnections()
			ts.Close()
		}
	}

	res, err := f.Run(cfg, "lbm_m")
	if err != nil {
		t.Fatalf("fleet did not fail over: %v", err)
	}
	if res.CPI != 14 {
		t.Fatalf("replica produced CPI %v, want 14", res.CPI)
	}
	if down := f.DownNodes(); len(down) != 1 || down[0] != owner {
		t.Fatalf("DownNodes = %v, want [%s]", down, owner)
	}
	if v, _ := reg.Value("client.fleet.failovers"); v < 1 {
		t.Fatalf("client.fleet.failovers = %v, want >= 1", v)
	}

	// Subsequent jobs owned by the dead node route straight to replicas
	// without re-dialing it (it is marked down).
	for seed := uint64(10); seed < 20; seed++ {
		c := sim.DefaultConfig()
		c.Seed = seed
		if _, err := f.Run(c, "lbm_m"); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestFleetFailsOverOn429(t *testing.T) {
	// Node saturation: one daemon has a zero-size pool substitute — a
	// Simulate that blocks forever — and queue depth 1, so after the first
	// job it answers 429. The fleet must route around it immediately.
	block := make(chan struct{})
	defer close(block)
	var busyCount, okCount atomic.Int64
	servers := make([]*serve.Server, 2)
	addrs := make([]string, 2)
	var tss []*httptest.Server
	for i := 0; i < 2; i++ {
		var simf serve.SimulateFunc
		if i == 0 {
			simf = func(cfg sim.Config, wl string) (system.Result, error) {
				busyCount.Add(1)
				<-block
				return system.Result{}, nil
			}
		} else {
			simf = deterministicSim(&okCount)
		}
		s, err := serve.New(serve.Config{Workers: 1, QueueDepth: 1, RetryAfter: 50 * time.Millisecond, Simulate: simf})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(func() { ts.Close() })
		servers[i], addrs[i] = s, ts.URL
		tss = append(tss, ts)
	}
	_ = servers
	_ = tss
	f, err := NewFleet(addrs, FleetConfig{RetryBudget: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Saturate node 0 with async submissions (sync ones would block this
	// goroutine on the never-finishing simulation): one running + one
	// queued, confirmed via /healthz.
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"workload":"mix_1","seed":%d}`, 100+i)
		resp, err := http.Post(addrs[0]+"/v1/jobs?async=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(addrs[0] + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			QueueDepth int `json:"queue_depth"`
			Busy       int `json:"busy"`
		}
		jerr := json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if jerr == nil && h.Busy == 1 && h.QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 0 never saturated (busy=%d depth=%d)", h.Busy, h.QueueDepth)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Now run many jobs through the fleet; all whose owner is node 0 must
	// fail over to node 1 and complete.
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := sim.DefaultConfig()
		cfg.Seed = seed
		if _, err := f.Run(cfg, "mix_1"); err != nil {
			t.Fatalf("seed %d did not fail over from busy node: %v", seed, err)
		}
	}
	if okCount.Load() < 1 {
		t.Fatal("healthy node never simulated anything")
	}
	// The busy node must not be marked down — 429 is pushback, not death.
	if down := f.DownNodes(); len(down) != 0 {
		t.Fatalf("429 marked a node down: %v", down)
	}
}

func TestFleetTerminalErrorsDoNotFailOver(t *testing.T) {
	counts := make([]atomic.Int64, 2)
	_, _, f := fleetDaemons(t, 2, func(i int) serve.Config {
		return serve.Config{Workers: 1, Simulate: deterministicSim(&counts[i])}
	}, FleetConfig{})

	// An invalid spec is a 400 — terminal everywhere, no failover loop.
	_, err := f.Do(context.Background(), serve.JobSpec{})
	if err == nil {
		t.Fatal("empty spec should fail")
	}
	if counts[0].Load()+counts[1].Load() != 0 {
		t.Fatal("invalid spec reached a simulator")
	}
}

func TestFleetProbeReadmitsRecoveredNode(t *testing.T) {
	var count atomic.Int64
	_, tss, f := fleetDaemons(t, 2, func(i int) serve.Config {
		return serve.Config{Workers: 1, Simulate: deterministicSim(&count)}
	}, FleetConfig{Cooldown: time.Hour}) // cooldown too long to self-heal

	m := Normalize(tss[0].URL)
	f.MarkDown(m)
	if down := f.DownNodes(); len(down) != 1 {
		t.Fatalf("DownNodes = %v", down)
	}
	// The node is actually healthy; one probe pass re-admits it.
	f.ProbeDown(context.Background())
	if down := f.DownNodes(); len(down) != 0 {
		t.Fatalf("probe did not re-admit healthy node: %v", down)
	}
}

func TestFleetResultReplicaRead(t *testing.T) {
	dirs := make([]string, 2)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	var count atomic.Int64
	servers, tss, f := fleetDaemons(t, 2, func(i int) serve.Config {
		return serve.Config{Workers: 1, StoreDir: dirs[i], Simulate: deterministicSim(&count)}
	}, FleetConfig{})

	cfg := sim.DefaultConfig()
	cfg.Seed = 3
	key := system.Key(cfg, "ast_m")
	want, err := f.Run(cfg, "ast_m")
	if err != nil {
		t.Fatal(err)
	}

	// The result is in the owner's store; a ring-aware read finds it.
	got, ok, err := f.Result(context.Background(), key)
	if err != nil || !ok {
		t.Fatalf("Result: ok=%v err=%v", ok, err)
	}
	if got.CPI != want.CPI || got.Workload != want.Workload {
		t.Fatalf("replica read mismatch: %+v vs %+v", got, want)
	}
	_ = servers
	_ = tss
}

// TestWalkPolicy drives Fleet.Walk with fake try funcs — no HTTP — through
// every branch of the routing policy. answer decides each attempt from the
// member's rank in the key's replica order and how often it was asked.
func TestWalkPolicy(t *testing.T) {
	dead := errors.New("connection refused")
	busy := func(after time.Duration) error { return &BusyError{After: after} }
	cases := []struct {
		name    string
		preDown []int // ranks marked down before the walk
		answer  func(rank, call int, cancel context.CancelFunc) error
		// Expectations; wantRank -1 means the walk must fail.
		wantRank                   int
		wantErr                    error
		attempts, busyN, failovers int
		wantDown                   []int
		minElapsed, maxElapsed     time.Duration
	}{
		{
			name: "429 moves on without markdown",
			answer: func(rank, _ int, _ context.CancelFunc) error {
				if rank == 0 {
					return busy(time.Second)
				}
				return nil
			},
			wantRank: 1, attempts: 2, busyN: 1,
		},
		{
			name: "5xx marks down and fails over",
			answer: func(rank, _ int, _ context.CancelFunc) error {
				if rank == 0 {
					return &StatusError{Code: 500, Msg: "boom"}
				}
				return nil
			},
			wantRank: 1, attempts: 2, failovers: 1, wantDown: []int{0},
		},
		{
			name: "transport error marks down and fails over",
			answer: func(rank, _ int, _ context.CancelFunc) error {
				if rank == 0 {
					return dead
				}
				return nil
			},
			wantRank: 1, attempts: 2, failovers: 1, wantDown: []int{0},
		},
		{
			name:     "4xx is terminal at the first member",
			answer:   func(int, int, context.CancelFunc) error { return &StatusError{Code: 422, Msg: "bad"} },
			wantRank: -1, attempts: 1,
		},
		{
			name: "context error is terminal",
			answer: func(_, _ int, cancel context.CancelFunc) error {
				cancel()
				return context.Canceled
			},
			wantRank: -1, wantErr: context.Canceled, attempts: 1,
		},
		{
			name:    "first pass skips down members",
			preDown: []int{0},
			answer:  func(int, int, context.CancelFunc) error { return nil },
			// The down owner is skipped, not asked.
			wantRank: 1, attempts: 1, wantDown: []int{0},
		},
		{
			name: "all busy waits the smallest Retry-After, then succeeds",
			answer: func(rank, call int, _ context.CancelFunc) error {
				if call == 0 {
					return busy(time.Duration(rank+1) * 40 * time.Millisecond)
				}
				return nil
			},
			wantRank: 0, attempts: 4, busyN: 3,
			minElapsed: 20 * time.Millisecond, maxElapsed: time.Second,
		},
		{
			name:     "all dead fails after the last-resort pass",
			answer:   func(int, int, context.CancelFunc) error { return dead },
			wantRank: -1, attempts: 6, failovers: 4, wantDown: []int{0, 1, 2},
			// Well under the 10 s RetryBudget: one RetryDelay(0) sleep.
			maxElapsed: 2 * time.Second,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := NewFleet([]string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
				FleetConfig{RetryBudget: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			const key = "walk-policy-key"
			order := f.Ring().Owners(key, 0)
			rank := make(map[string]int, len(order))
			for i, m := range order {
				rank[m] = i
			}
			for _, r := range c.preDown {
				f.MarkDown(order[r])
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			calls := make(map[string]int)
			try := func(_ context.Context, m string) (serve.JobStatus, error) {
				n := calls[m]
				calls[m]++
				if err := c.answer(rank[m], n, cancel); err != nil {
					return serve.JobStatus{}, err
				}
				return serve.JobStatus{State: serve.StateDone}, nil
			}

			start := time.Now()
			w, err := f.Walk(ctx, key, try)
			elapsed := time.Since(start)

			if c.wantRank < 0 {
				if err == nil {
					t.Fatalf("walk succeeded on %s, want an error", w.Member)
				}
				if c.wantErr != nil && !errors.Is(err, c.wantErr) {
					t.Fatalf("err = %v, want %v", err, c.wantErr)
				}
				if w.Member != "" {
					t.Fatalf("failed walk reports member %q", w.Member)
				}
			} else {
				if err != nil {
					t.Fatalf("walk failed: %v", err)
				}
				if w.Member != order[c.wantRank] || w.Status.State != serve.StateDone {
					t.Fatalf("answered by %s (state %s), want rank %d %s", w.Member, w.Status.State, c.wantRank, order[c.wantRank])
				}
			}
			if w.Attempts != c.attempts || w.Busy != c.busyN || w.Failovers != c.failovers {
				t.Fatalf("attempts/busy/failovers = %d/%d/%d, want %d/%d/%d",
					w.Attempts, w.Busy, w.Failovers, c.attempts, c.busyN, c.failovers)
			}
			var wantDown []string
			for _, r := range c.wantDown {
				wantDown = append(wantDown, order[r])
			}
			sort.Strings(wantDown)
			if got := f.DownNodes(); fmt.Sprint(got) != fmt.Sprint(wantDown) {
				t.Fatalf("DownNodes = %v, want %v", got, wantDown)
			}
			if elapsed < c.minElapsed {
				t.Fatalf("walk took %v, want >= %v", elapsed, c.minElapsed)
			}
			if c.maxElapsed > 0 && elapsed > c.maxElapsed {
				t.Fatalf("walk took %v, want <= %v", elapsed, c.maxElapsed)
			}
		})
	}
}

// TestFleetResultAsksDownMembersAsLastResort: with every member believed
// down, Result must still ask them rather than report a clean miss, and a
// fleet where no member answers must report an error.
func TestFleetResultAsksDownMembersAsLastResort(t *testing.T) {
	var count atomic.Int64
	_, tss, f := fleetDaemons(t, 2, func(i int) serve.Config {
		return serve.Config{Workers: 1, StoreDir: t.TempDir(), Simulate: deterministicSim(&count)}
	}, FleetConfig{Cooldown: time.Hour})

	cfg := sim.DefaultConfig()
	cfg.Seed = 5
	key := system.Key(cfg, "mcf_m")
	want, err := f.Run(cfg, "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range f.Nodes() {
		f.MarkDown(m)
	}
	got, ok, err := f.Result(context.Background(), key)
	if err != nil || !ok {
		t.Fatalf("Result with every member marked down: ok=%v err=%v", ok, err)
	}
	if got.CPI != want.CPI || got.Workload != want.Workload {
		t.Fatalf("result mismatch: %+v vs %+v", got, want)
	}

	for _, ts := range tss {
		ts.Close()
	}
	if _, ok, err := f.Result(context.Background(), key); err == nil {
		t.Fatalf("Result from a dead fleet: ok=%v, want an error", ok)
	}
}
