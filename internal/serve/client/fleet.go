package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fpb/internal/cluster/ring"
	"fpb/internal/obs"
	"fpb/internal/serve"
	"fpb/internal/sim"
	"fpb/internal/system"
)

// FleetConfig tunes a Fleet client.
type FleetConfig struct {
	// VNodes is the ring's virtual-node count per member (default
	// ring.DefaultVirtualNodes). Every fleet participant must agree on it.
	VNodes int
	// Cooldown is how long a node that failed a request is skipped before
	// routing optimistically retries it (default ring.DefaultCooldown).
	Cooldown time.Duration
	// ProbeInterval enables a background health prober that re-admits
	// recovered nodes early (and detects silently dead ones). 0 disables
	// it; failure-driven marking plus the cooldown still work.
	ProbeInterval time.Duration
	// RetryBudget bounds how long a Walk keeps cycling the replica order
	// while members answer busy (default 2 minutes).
	RetryBudget time.Duration
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.VNodes <= 0 {
		c.VNodes = ring.DefaultVirtualNodes
	}
	if c.Cooldown <= 0 {
		c.Cooldown = ring.DefaultCooldown
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 2 * time.Minute
	}
	return c
}

// Fleet is the failover-aware client for a consistent-hash cluster of fpbd
// daemons, from one member up. Each job routes to the ring owner of its
// system.Key — the node whose content-addressed store is hot for that key —
// and walks the key's successor list when the owner is down, draining, or
// pushing back with 429. Walk is the only code that walks that list: Do
// and the sweep coordinator (internal/cluster) both route through it.
// Placement is deterministic (same ring as the daemons themselves), so
// every client sends the same key to the same node and the fleet's caches
// stay partitioned instead of duplicated.
//
// Health state is failure-driven (a node that errors is skipped for
// Cooldown) and, optionally, probe-driven: with ProbeInterval set, a
// background goroutine re-checks /healthz of every down node so recovered
// nodes rejoin the routing table before their cooldown expires. Close stops
// the prober.
type Fleet struct {
	cfg     FleetConfig
	ring    *ring.Ring
	tracker *ring.Tracker
	clients map[string]*Client

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	// Telemetry (nil-safe until Instrument).
	cRequests  *obs.Counter
	cRetry429  *obs.Counter
	cErrors    *obs.Counter
	cFailovers *obs.Counter
	cProbes    *obs.Counter
	hRequestMs *obs.Histogram
}

// NewFleet builds a fleet client over the node addresses (each "host:port"
// or a full URL; duplicates collapse after normalization). One address makes
// a one-member fleet, so callers construct a Fleet whether the deployment is
// one daemon or twenty.
func NewFleet(addrs []string, cfg FleetConfig) (*Fleet, error) {
	cfg = cfg.withDefaults()
	members := make([]string, 0, len(addrs))
	clients := make(map[string]*Client, len(addrs))
	for _, a := range addrs {
		base := Normalize(a)
		if _, dup := clients[base]; dup {
			continue
		}
		clients[base] = New(base)
		members = append(members, base)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("client: fleet: no node addresses")
	}
	f := &Fleet{
		cfg:     cfg,
		ring:    ring.New(cfg.VNodes, members...),
		tracker: ring.NewTracker(cfg.Cooldown),
		clients: clients,
		stop:    make(chan struct{}),
	}
	if cfg.ProbeInterval > 0 {
		f.wg.Add(1)
		go f.probeLoop()
	}
	return f, nil
}

// Ring exposes the fleet's placement ring (read-only).
func (f *Fleet) Ring() *ring.Ring { return f.ring }

// Nodes returns the normalized member addresses, sorted.
func (f *Fleet) Nodes() []string { return f.ring.Members() }

// Instrument registers Do's telemetry into reg — request count, 429
// answers, terminal errors, and end-to-end request latency including retry
// waits — plus the fleet's failover and health series. Call once, before
// concurrent use.
func (f *Fleet) Instrument(reg *obs.Registry) {
	f.cRequests = reg.Counter("client.requests")
	f.cRetry429 = reg.Counter("client.retries_429")
	f.cErrors = reg.Counter("client.errors")
	f.hRequestMs = reg.Histogram("client.request_ms", obs.LatencyBucketsMs)
	f.cFailovers = reg.Counter("client.fleet.failovers")
	f.cProbes = reg.Counter("client.fleet.probes")
	reg.Gauge("client.fleet.nodes", func() float64 { return float64(f.ring.Len()) })
	reg.Gauge("client.fleet.nodes_down", func() float64 { return float64(len(f.tracker.Down())) })
	for name, help := range map[string]string{
		"client.requests":         "jobs submitted to the fleet",
		"client.retries_429":      "429 pushback responses observed across replicas",
		"client.errors":           "job submissions that failed terminally",
		"client.request_ms":       "end-to-end fleet job latency incl. failover (ms)",
		"client.fleet.failovers":  "requests moved to a successor replica after a node failure",
		"client.fleet.probes":     "background health probes issued",
		"client.fleet.nodes":      "configured fleet members",
		"client.fleet.nodes_down": "members currently believed down",
	} {
		reg.SetHelp(name, help)
	}
}

// Close stops the background prober (if any) and waits for it.
func (f *Fleet) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
}

// probeLoop re-probes down members every ProbeInterval so recovered nodes
// rejoin routing promptly. Alive members are left alone — regular traffic
// is their health check.
func (f *Fleet) probeLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), f.cfg.ProbeInterval)
			f.ProbeDown(ctx)
			cancel()
		}
	}
}

// ProbeDown health-checks every member currently marked down, re-admitting
// the ones that answer. Exposed for tests and one-shot tooling.
func (f *Fleet) ProbeDown(ctx context.Context) {
	for _, m := range f.tracker.Down() {
		f.cProbes.Inc()
		if err := f.clients[m].Health(ctx); err == nil {
			f.tracker.MarkAlive(m)
		} else {
			f.tracker.MarkDown(m) // refresh the cooldown
		}
	}
}

// MarkDown force-marks a member down, exactly as a failed call would.
// Exposed for tests and one-shot tooling.
func (f *Fleet) MarkDown(member string) { f.tracker.MarkDown(Normalize(member)) }

// Alive reports whether member is currently believed reachable.
func (f *Fleet) Alive(member string) bool { return f.tracker.Alive(member) }

// Client returns the single-node client of a member (nil for non-members),
// for callers that build their own TryFunc on top of Submit.
func (f *Fleet) Client(member string) *Client { return f.clients[member] }

// TryFunc makes one attempt of a call on one member. Its error classifies
// the attempt the way Client.Submit's errors do: a *BusyError is 429
// pushback, a *StatusError below 500 is terminal, and anything else (a
// transport error, a 5xx) means the member is unhealthy.
type TryFunc func(ctx context.Context, member string) (serve.JobStatus, error)

// WalkResult reports one replica walk.
type WalkResult struct {
	Status    serve.JobStatus // the answering member's reply
	Member    string          // the member that answered ("" on error)
	Attempts  int             // try calls made
	Busy      int             // 429 answers among them
	Failovers int             // moves to a successor after a member failed
}

// Walk runs try along key's replica order until a member answers. It is
// the fleet's one routing policy, shared by Do and the sweep coordinator
// (internal/cluster):
//
//   - the first pass skips members believed down;
//   - a *BusyError (429) moves on to the next replica without marking the
//     member down;
//   - a transport error or 5xx marks the member down and fails over;
//   - a 4xx or a context error is terminal: a deterministic simulation
//     fails identically on every replica;
//   - after a pass that met a busy member, Walk sleeps the smallest
//     advertised Retry-After (jittered, see RetryDelay) and walks every
//     member again, down ones included, until RetryBudget expires;
//   - a last-resort pass over every member that finds none alive and none
//     busy ends the walk.
func (f *Fleet) Walk(ctx context.Context, key string, try TryFunc) (WalkResult, error) {
	order := f.ring.Owners(key, 0) // full deterministic failover order
	deadline := time.Now().Add(f.cfg.RetryBudget)
	var w WalkResult
	var lastErr error
	for pass := 0; ; pass++ {
		var busyWait time.Duration
		sawBusy := false
		for i, m := range order {
			if pass == 0 && !f.tracker.Alive(m) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return w, err
			}
			w.Attempts++
			st, err := try(ctx, m)
			if err == nil {
				w.Status, w.Member = st, m
				return w, nil
			}
			if cerr := ctx.Err(); cerr != nil {
				return w, cerr
			}
			lastErr = err
			var busy *BusyError
			var status *StatusError
			switch {
			case errors.As(err, &busy):
				w.Busy++
				sawBusy = true
				if busy.After > 0 && (busyWait == 0 || busy.After < busyWait) {
					busyWait = busy.After
				}
			case errors.As(err, &status) && status.Code < 500:
				return w, err
			default:
				f.tracker.MarkDown(m)
				if i < len(order)-1 {
					w.Failovers++
				}
			}
		}
		if w.Attempts == 0 {
			// The first pass found every member believed down: go
			// straight to the last-resort pass.
			continue
		}
		if pass > 0 && !sawBusy {
			return w, fmt.Errorf("client: no reachable member: %w", lastErr)
		}
		if time.Now().After(deadline) {
			return w, fmt.Errorf("client: fleet retry budget exhausted: %w", lastErr)
		}
		select {
		case <-time.After(RetryDelay(busyWait)):
		case <-ctx.Done():
			return w, ctx.Err()
		}
	}
}

// Do submits one job to the fleet through Walk and returns its final
// status.
func (f *Fleet) Do(ctx context.Context, spec serve.JobSpec) (serve.JobStatus, error) {
	cfg, wl, err := spec.Resolve()
	if err != nil {
		return serve.JobStatus{}, err
	}
	f.cRequests.Inc()
	start := time.Now()
	w, err := f.Walk(ctx, system.Key(cfg, wl), func(ctx context.Context, m string) (serve.JobStatus, error) {
		return f.clients[m].Submit(ctx, spec)
	})
	// Latency includes retry waits: it is the caller-observed cost of the
	// remote call, not the server's service time.
	f.hRequestMs.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	f.cRetry429.Add(uint64(w.Busy))
	f.cFailovers.Add(uint64(w.Failovers))
	if err != nil {
		f.cErrors.Inc()
	}
	return w.Status, err
}

// Result fetches a stored result by content key, walking the key's replica
// order: the primary owner first, then successors (which hold it when the
// replication factor is > 1 or a failover executed it elsewhere). As in
// Walk, the first pass skips members believed down, and a last-resort pass
// asks every member when the first one got no answer. ok=false is a clean
// miss; an error means no member answered at all.
func (f *Fleet) Result(ctx context.Context, key string) (system.Result, bool, error) {
	order := f.ring.Owners(key, 0)
	var lastErr error
	answered := false
	for pass := 0; pass < 2 && !answered; pass++ {
		for _, m := range order {
			if pass == 0 && !f.tracker.Alive(m) {
				continue
			}
			res, ok, err := f.clients[m].Result(ctx, key)
			if cerr := ctx.Err(); cerr != nil {
				return system.Result{}, false, cerr
			}
			if err != nil {
				lastErr = err
				f.tracker.MarkDown(m)
				continue
			}
			if ok {
				return res, true, nil
			}
			answered = true
		}
	}
	if !answered {
		return system.Result{}, false, fmt.Errorf("client: no reachable member for result: %w", lastErr)
	}
	return system.Result{}, false, nil
}

// Run simulates one (config, workload) pair on the fleet; its signature
// matches exp.Backend, so `fpbexp -remote host1,host2,host3` plugs a whole
// cluster under an experiment Runner.
func (f *Fleet) Run(cfg sim.Config, wl string) (system.Result, error) {
	st, err := f.Do(context.Background(), serve.JobSpec{Workload: wl, Config: &cfg})
	if err != nil {
		return system.Result{}, err
	}
	if st.State != serve.StateDone || st.Result == nil {
		return system.Result{}, fmt.Errorf("client: fleet job %s: state %s: %s", st.ID, st.State, st.Error)
	}
	return *st.Result, nil
}

// Owners reports the replica preference order the fleet would use for one
// (config, workload) pair — handy for tooling (fpbctl members) and tests.
func (f *Fleet) Owners(cfg sim.Config, wl string) []string {
	return f.ring.Owners(system.Key(cfg, wl), 0)
}

// DownNodes lists members currently believed down, sorted.
func (f *Fleet) DownNodes() []string { return f.tracker.Down() }
