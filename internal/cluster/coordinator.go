package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"fpb/internal/cluster/ring"
	"fpb/internal/obs"
	"fpb/internal/serve"
	"fpb/internal/serve/client"
)

// CoordinatorConfig sizes the sweep coordinator of one node.
type CoordinatorConfig struct {
	// FleetConfig tunes the coordinator's client.Fleet: ring virtual
	// nodes (all fleet participants must agree), the down-member
	// cooldown, background health probing, and the retry budget of each
	// unit's replica walk.
	client.FleetConfig
	// Self is this node's ring identity (normalized address). Units owned
	// by Self execute through the local serve.Server directly — no
	// loopback HTTP.
	Self string
	// Members is the full ring member set, Self included.
	Members []string
	// Replicas is the replication factor R: each completed unit is pushed
	// to the first R ring owners of its key (default 2, clamped to the
	// fleet size). R=1 means no cross-node copies.
	Replicas int
	// PerNodeInflight bounds concurrently dispatched units per target node
	// (default 4) so one sweep cannot bury a node's queue and starve
	// interactive jobs into 429s.
	PerNodeInflight int
	// MaxSweeps bounds retained sweep records (default 64; oldest finished
	// records evicted first).
	MaxSweeps int
	// Local runs a unit on this node (wired to serve.Server.RunLocal).
	Local func(spec serve.JobSpec) (serve.JobStatus, bool, error)
	// Logger receives structured sweep lifecycle logs (nil discards).
	Logger *slog.Logger
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.PerNodeInflight <= 0 {
		c.PerNodeInflight = 4
	}
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = 64
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// sweepRun is one live sweep. Mutable fields are guarded by mu.
type sweepRun struct {
	id     string
	units  []Unit
	incRes bool
	cancel context.CancelFunc
	start  time.Time
	done   chan struct{}

	mu         sync.Mutex
	state      SweepState
	completed  int
	failed     int
	cancelled  int
	replicated int
	perNode    map[string]int
	outcomes   []JobOutcome
	elapsed    time.Duration
}

func (sr *sweepRun) status() SweepStatus {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	st := SweepStatus{
		ID:         sr.id,
		State:      sr.state,
		Total:      len(sr.units),
		Completed:  sr.completed,
		Failed:     sr.failed,
		Cancelled:  sr.cancelled,
		Replicated: sr.replicated,
		PerNode:    make(map[string]int, len(sr.perNode)),
		Jobs:       make([]JobOutcome, len(sr.outcomes)),
	}
	for n, c := range sr.perNode {
		st.PerNode[n] = c
	}
	copy(st.Jobs, sr.outcomes)
	el := sr.elapsed
	if el == 0 {
		el = time.Since(sr.start)
	}
	st.ElapsedMs = float64(el.Nanoseconds()) / 1e6
	if sr.state == SweepFailed {
		for _, o := range sr.outcomes {
			if o.Error != "" {
				st.Error = o.Error
				break
			}
		}
	}
	return st
}

// Coordinator fans sweeps out across the ring. One lives in every Node, so
// any fpbd can coordinate; sweeps are independent, and two coordinators
// dispatching overlapping keys still simulate each key once per node thanks
// to the servers' singleflight + store dedupe.
//
// Routing is the fleet's: each unit walks its key's replica order through
// client.Fleet.Walk, the same policy remote callers use.
type Coordinator struct {
	cfg   CoordinatorConfig
	fleet *client.Fleet
	hc    *http.Client
	log   *slog.Logger

	mu      sync.Mutex
	sweeps  map[string]*sweepRun
	order   []string
	nextID  uint64
	sems    map[string]chan struct{}
	running int
	wg      sync.WaitGroup

	// Telemetry (nil-safe until Instrument).
	cSweeps, cSweepsDone, cSweepsFailed, cSweepsCancelled     *obs.Counter
	cJobsDispatched, cJobsDone, cJobsFailed, cJobsCancelled   *obs.Counter
	cJobsRetried, cFailovers, cReplicasPushed, cReplicaErrors *obs.Counter
	hJobMs, hSweepMs                                          *obs.Histogram
	perNodeDone                                               map[string]*obs.Counter
}

// NewCoordinator builds a coordinator. Members are normalized; Self must be
// among them (it is added if missing).
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	cfg.Self = client.Normalize(cfg.Self)
	fleet, err := client.NewFleet(append([]string{cfg.Self}, cfg.Members...), cfg.FleetConfig)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:    cfg,
		fleet:  fleet,
		hc:     &http.Client{},
		log:    cfg.Logger,
		sweeps: make(map[string]*sweepRun),
		sems:   make(map[string]chan struct{}),
	}
	for _, m := range fleet.Nodes() {
		co.sems[m] = make(chan struct{}, cfg.PerNodeInflight)
	}
	return co, nil
}

// Ring exposes the coordinator's placement ring.
func (co *Coordinator) Ring() *ring.Ring { return co.fleet.Ring() }

// Members reports the configured member set, sorted.
func (co *Coordinator) Members() MembersStatus {
	r := co.fleet.Ring()
	return MembersStatus{
		Self:     co.cfg.Self,
		Members:  r.Members(),
		Down:     co.fleet.DownNodes(),
		Replicas: co.cfg.Replicas,
		VNodes:   r.VNodes(),
		Shares:   r.Shares(),
	}
}

// nodeMetricName renders a member address into a metrics-name segment:
// "http://127.0.0.1:8081" -> "127_0_0_1_8081".
func nodeMetricName(addr string) string {
	addr = strings.TrimPrefix(addr, "http://")
	addr = strings.TrimPrefix(addr, "https://")
	var b strings.Builder
	for _, r := range addr {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Instrument registers the coordinator's fleet telemetry into reg (the
// owning node's serve registry, so one /metrics scrape covers both layers):
// ring ownership gauges, per-node dispatch counters, sweep counters, and
// the sweep/job latency histograms.
func (co *Coordinator) Instrument(reg *obs.Registry) {
	co.cSweeps = reg.Counter("cluster.sweeps.accepted")
	co.cSweepsDone = reg.Counter("cluster.sweeps.done")
	co.cSweepsFailed = reg.Counter("cluster.sweeps.failed")
	co.cSweepsCancelled = reg.Counter("cluster.sweeps.cancelled")
	co.cJobsDispatched = reg.Counter("cluster.jobs.dispatched")
	co.cJobsDone = reg.Counter("cluster.jobs.done")
	co.cJobsFailed = reg.Counter("cluster.jobs.failed")
	co.cJobsCancelled = reg.Counter("cluster.jobs.cancelled")
	co.cJobsRetried = reg.Counter("cluster.jobs.retried")
	co.cFailovers = reg.Counter("cluster.jobs.failovers")
	co.cReplicasPushed = reg.Counter("cluster.replicas.pushed")
	co.cReplicaErrors = reg.Counter("cluster.replicas.errors")
	co.hJobMs = reg.Histogram("cluster.sweep.job_ms", obs.LatencyBucketsMs)
	co.hSweepMs = reg.Histogram("cluster.sweep.duration_ms", obs.ExpBuckets(1, 10, 8))
	reg.Gauge("cluster.ring.members", func() float64 { return float64(co.fleet.Ring().Len()) })
	reg.Gauge("cluster.ring.owned_share", func() float64 { return co.fleet.Ring().Shares()[co.cfg.Self] })
	reg.Gauge("cluster.members.down", func() float64 { return float64(len(co.fleet.DownNodes())) })
	reg.Gauge("cluster.sweeps.running", func() float64 {
		co.mu.Lock()
		defer co.mu.Unlock()
		return float64(co.running)
	})
	co.perNodeDone = make(map[string]*obs.Counter, len(co.sems))
	for _, m := range co.fleet.Nodes() {
		name := "cluster.node." + nodeMetricName(m) + ".jobs_done"
		co.perNodeDone[m] = reg.Counter(name)
		reg.SetHelp(name, "sweep units completed by "+m)
	}
	for name, help := range map[string]string{
		"cluster.sweeps.accepted":   "sweeps accepted by this coordinator",
		"cluster.sweeps.done":       "sweeps that completed every unit",
		"cluster.sweeps.failed":     "sweeps with at least one terminal unit failure",
		"cluster.sweeps.cancelled":  "sweeps cancelled before completion",
		"cluster.sweeps.running":    "sweeps currently executing",
		"cluster.jobs.dispatched":   "sweep unit dispatch attempts",
		"cluster.jobs.done":         "sweep units completed",
		"cluster.jobs.failed":       "sweep units failed terminally",
		"cluster.jobs.cancelled":    "sweep units stopped by their sweep's cancellation",
		"cluster.jobs.retried":      "unit dispatches retried after 429 pushback",
		"cluster.jobs.failovers":    "unit dispatches moved to a successor replica",
		"cluster.replicas.pushed":   "results replicated to ring successors",
		"cluster.replicas.errors":   "replica pushes that failed",
		"cluster.sweep.job_ms":      "per-unit dispatch-to-done latency (ms)",
		"cluster.sweep.duration_ms": "whole-sweep duration (ms)",
		"cluster.ring.members":      "configured ring members",
		"cluster.ring.owned_share":  "fraction of the keyspace this node owns",
		"cluster.members.down":      "members currently believed down",
	} {
		reg.SetHelp(name, help)
	}
}

// Shutdown cancels every running sweep and stops the prober. Completed
// units keep their stored results; a restarted sweep re-runs only misses.
func (co *Coordinator) Shutdown() {
	co.mu.Lock()
	for _, sr := range co.sweeps {
		sr.cancel()
	}
	co.mu.Unlock()
	co.wg.Wait()
	co.fleet.Close()
}

// Submit accepts a sweep: expands it, registers the run, and starts the
// fan-out in the background. The returned status is the initial snapshot
// (state running, completed 0).
func (co *Coordinator) Submit(spec SweepSpec) (SweepStatus, error) {
	units, err := spec.Expand()
	if err != nil {
		return SweepStatus{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	co.mu.Lock()
	co.nextID++
	sr := &sweepRun{
		id:       fmt.Sprintf("s%06d", co.nextID),
		units:    units,
		incRes:   spec.IncludeResults,
		cancel:   cancel,
		start:    time.Now(),
		done:     make(chan struct{}),
		state:    SweepRunning,
		perNode:  make(map[string]int),
		outcomes: make([]JobOutcome, len(units)),
	}
	for i, u := range units {
		sr.outcomes[i] = JobOutcome{
			Key: u.Key, Workload: u.Workload, Scheme: u.Scheme,
			Mapping: u.Mapping, State: serve.StateQueued,
		}
	}
	co.sweeps[sr.id] = sr
	co.order = append(co.order, sr.id)
	co.evictLocked()
	co.running++
	co.mu.Unlock()
	co.cSweeps.Inc()
	co.log.Info("sweep accepted", "sweep", sr.id, "units", len(units),
		"schemes", len(spec.Schemes), "workloads", len(spec.Workloads))

	co.wg.Add(1)
	go co.runSweep(ctx, sr)
	return sr.status(), nil
}

// evictLocked drops the oldest finished sweep records above MaxSweeps.
func (co *Coordinator) evictLocked() {
	for len(co.sweeps) > co.cfg.MaxSweeps && len(co.order) > 0 {
		evicted := false
		for i, id := range co.order {
			sr := co.sweeps[id]
			sr.mu.Lock()
			finished := sr.state != SweepRunning
			sr.mu.Unlock()
			if finished {
				delete(co.sweeps, id)
				co.order = append(co.order[:i], co.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// Status returns a sweep's snapshot.
func (co *Coordinator) Status(id string) (SweepStatus, bool) {
	co.mu.Lock()
	sr, ok := co.sweeps[id]
	co.mu.Unlock()
	if !ok {
		return SweepStatus{}, false
	}
	return sr.status(), true
}

// Sweeps lists every retained sweep's snapshot, oldest first.
func (co *Coordinator) Sweeps() []SweepStatus {
	co.mu.Lock()
	ids := make([]string, len(co.order))
	copy(ids, co.order)
	runs := make([]*sweepRun, 0, len(ids))
	for _, id := range ids {
		if sr, ok := co.sweeps[id]; ok {
			runs = append(runs, sr)
		}
	}
	co.mu.Unlock()
	out := make([]SweepStatus, len(runs))
	for i, sr := range runs {
		out[i] = sr.status()
	}
	return out
}

// Cancel aborts a running sweep. Returns false for unknown ids; cancelling
// a finished sweep is a no-op (true).
func (co *Coordinator) Cancel(id string) bool {
	co.mu.Lock()
	sr, ok := co.sweeps[id]
	co.mu.Unlock()
	if !ok {
		return false
	}
	sr.cancel()
	return true
}

// Wait blocks until the sweep finishes (or ctx expires) and returns its
// final status.
func (co *Coordinator) Wait(ctx context.Context, id string) (SweepStatus, error) {
	co.mu.Lock()
	sr, ok := co.sweeps[id]
	co.mu.Unlock()
	if !ok {
		return SweepStatus{}, fmt.Errorf("cluster: unknown sweep %s", id)
	}
	select {
	case <-sr.done:
		return sr.status(), nil
	case <-ctx.Done():
		return sr.status(), ctx.Err()
	}
}

// runSweep executes every unit (bounded per-node by the semaphores) and
// settles the sweep's final state.
func (co *Coordinator) runSweep(ctx context.Context, sr *sweepRun) {
	defer co.wg.Done()
	var wg sync.WaitGroup
	for i := range sr.units {
		wg.Add(1)
		go func(u Unit) {
			defer wg.Done()
			co.runUnit(ctx, sr, u)
		}(sr.units[i])
	}
	wg.Wait()

	sr.mu.Lock()
	sr.elapsed = time.Since(sr.start)
	switch {
	case sr.cancelled > 0:
		sr.state = SweepCancelled
	case sr.failed > 0:
		sr.state = SweepFailed
	default:
		sr.state = SweepDone
	}
	state := sr.state
	completed, failed, cancelled, elapsed := sr.completed, sr.failed, sr.cancelled, sr.elapsed
	sr.mu.Unlock()
	close(sr.done)

	co.mu.Lock()
	co.running--
	co.mu.Unlock()
	co.hSweepMs.Observe(float64(elapsed.Nanoseconds()) / 1e6)
	switch state {
	case SweepDone:
		co.cSweepsDone.Inc()
	case SweepFailed:
		co.cSweepsFailed.Inc()
	case SweepCancelled:
		co.cSweepsCancelled.Inc()
	}
	co.log.Info("sweep finished", "sweep", sr.id, "state", string(state),
		"completed", completed, "failed", failed, "cancelled", cancelled,
		"elapsed_ms", float64(elapsed.Nanoseconds())/1e6)
}

// runUnit dispatches one unit along its key's replica order through the
// fleet's walk. A terminal failure (the simulation itself errors) fails the
// unit — and therefore the sweep — without retry, because the engine is
// deterministic: the same config fails the same way everywhere.
func (co *Coordinator) runUnit(ctx context.Context, sr *sweepRun, u Unit) {
	start := time.Now()
	w, err := co.fleet.Walk(ctx, u.Key, func(ctx context.Context, member string) (serve.JobStatus, error) {
		return co.try(ctx, member, u)
	})
	co.cJobsDispatched.Add(uint64(w.Attempts))
	co.cJobsRetried.Add(uint64(w.Busy))
	co.cFailovers.Add(uint64(w.Failovers))
	if w.Failovers > 0 {
		co.log.Warn("unit failover", "sweep", sr.id, "key", u.Key[:8],
			"failovers", w.Failovers, "member", w.Member)
	}
	if err != nil {
		co.recordUnit(sr, u, "", serve.JobStatus{}, w.Attempts, err)
		return
	}
	co.hJobMs.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	co.recordUnit(sr, u, w.Member, w.Status, w.Attempts, nil)
	co.replicate(ctx, sr, u, w.Member, w.Status)
}

// try makes one attempt of u on member while holding member's in-flight
// semaphore: through Local for self (no loopback HTTP), through the
// member's client for peers. Local's sentinel errors become the errors a
// peer would answer with — ErrBusy a 429, ErrDraining a 503, anything else
// a terminal 422 — so the walk applies one policy to both paths.
func (co *Coordinator) try(ctx context.Context, member string, u Unit) (serve.JobStatus, error) {
	select {
	case co.sems[member] <- struct{}{}:
	case <-ctx.Done():
		return serve.JobStatus{}, ctx.Err()
	}
	defer func() { <-co.sems[member] }()
	if member != co.cfg.Self || co.cfg.Local == nil {
		return co.fleet.Client(member).Submit(ctx, u.spec)
	}
	st, _, err := co.cfg.Local(u.spec)
	switch {
	case err == nil:
		return st, nil
	case errors.Is(err, serve.ErrBusy):
		return serve.JobStatus{}, &client.BusyError{Node: member, Msg: err.Error()}
	case errors.Is(err, serve.ErrDraining):
		return serve.JobStatus{}, &client.StatusError{Code: http.StatusServiceUnavailable, Msg: err.Error()}
	default:
		return serve.JobStatus{}, &client.StatusError{Code: http.StatusUnprocessableEntity, Msg: err.Error()}
	}
}

// recordUnit settles one unit's outcome in the sweep record. An error from
// the sweep's own cancellation settles the unit as cancelled, not failed.
func (co *Coordinator) recordUnit(sr *sweepRun, u Unit, member string, st serve.JobStatus, attempts int, err error) {
	sr.mu.Lock()
	o := &sr.outcomes[u.Index]
	o.Attempts = attempts
	switch {
	case errors.Is(err, context.Canceled):
		o.State = UnitCancelled
		o.Error = err.Error()
		sr.cancelled++
	case err != nil:
		o.State = serve.StateFailed
		o.Error = err.Error()
		sr.failed++
	case st.State == serve.StateDone:
		o.State = serve.StateDone
		o.Node = member
		o.Cached = st.Cached
		if sr.incRes {
			o.Result = st.Result
		}
		sr.completed++
		sr.perNode[member]++
	default:
		o.State = serve.StateFailed
		o.Error = fmt.Sprintf("unexpected job state %s: %s", st.State, st.Error)
		sr.failed++
	}
	state := o.State
	sr.mu.Unlock()
	switch state {
	case UnitCancelled:
		co.cJobsCancelled.Inc()
	case serve.StateFailed:
		co.cJobsFailed.Inc()
	default:
		co.cJobsDone.Inc()
		co.perNodeDone[member].Inc()
	}
}

// replicate pushes a completed result to the R ring owners of its key
// (minus the member that already holds it). Pushes are synchronous within
// the unit's goroutine — a sweep is not "done" until its replica fan-out
// settled — but failures only count and log; the result is already durable
// on the executing node.
func (co *Coordinator) replicate(ctx context.Context, sr *sweepRun, u Unit, executed string, st serve.JobStatus) {
	if co.cfg.Replicas <= 1 || st.Result == nil {
		return
	}
	for _, target := range co.fleet.Ring().Owners(u.Key, co.cfg.Replicas) {
		if target == executed || !co.fleet.Alive(target) {
			continue
		}
		if err := co.pushReplica(ctx, target, ReplicaPut{Key: u.Key, Result: *st.Result}); err != nil {
			co.cReplicaErrors.Inc()
			co.log.Warn("replica push failed", "sweep", sr.id, "key", u.Key[:8],
				"target", target, "err", err)
			continue
		}
		co.cReplicasPushed.Inc()
		sr.mu.Lock()
		sr.replicated++
		sr.mu.Unlock()
	}
}

// pushReplica POSTs one result to target's /v1/replicate. Self-pushes go
// through HTTP too only when Local is unset; with Local they are skipped by
// the caller (the executing node already stored the result).
func (co *Coordinator) pushReplica(ctx context.Context, target string, rp ReplicaPut) error {
	body, err := json.Marshal(rp)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/replicate", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := co.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("cluster: replicate to %s: %s", target, resp.Status)
	}
	return nil
}
