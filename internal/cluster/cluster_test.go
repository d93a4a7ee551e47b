package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fpb/internal/obs"
	"fpb/internal/serve"
	"fpb/internal/sim"
	"fpb/internal/system"
)

// fleetHarness is a running N-node fleet over real TCP listeners.
type fleetHarness struct {
	addrs []string
	nodes []*Node
	https []*http.Server
}

// startFleet reserves n listeners first (so every node knows the full member
// set before it starts), then boots one Node per listener. simulate==nil
// runs the real engine. Per-node store dirs come from t.TempDir.
func startFleet(t *testing.T, n int, simulate func(node int) serve.SimulateFunc) *fleetHarness {
	t.Helper()
	h := &fleetHarness{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		h.addrs = append(h.addrs, "http://"+ln.Addr().String())
	}
	for i := range lns {
		var peers []string
		for j, a := range h.addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		cfg := NodeConfig{
			Serve: serve.Config{
				Workers:       2,
				QueueDepth:    64,
				StoreDir:      t.TempDir(),
				CheckpointDir: t.TempDir(),
				RetryAfter:    50 * time.Millisecond,
			},
			Self:     h.addrs[i],
			Peers:    peers,
			Replicas: 2,
			Cooldown: 200 * time.Millisecond,
		}
		if simulate != nil {
			cfg.Serve.Simulate = simulate(i)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		h.nodes = append(h.nodes, node)
		hs := &http.Server{Handler: node}
		h.https = append(h.https, hs)
		go hs.Serve(lns[i])
	}
	return h
}

// kill hard-closes node i's HTTP server: the listener and every active
// connection die immediately, like a crashed process.
func (h *fleetHarness) kill(i int) { h.https[i].Close() }

func (h *fleetHarness) stop(skip map[int]bool) {
	for i, hs := range h.https {
		if !skip[i] {
			hs.Close()
			h.nodes[i].Drain()
		}
	}
}

func postSweep(t *testing.T, addr string, spec SweepSpec, wait bool) SweepStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	url := addr + "/v1/sweeps"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: %s", resp.Status)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode sweep status: %v", err)
	}
	return st
}

func pollSweep(t *testing.T, addr, id string, timeout time.Duration) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(addr + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatalf("GET sweep: %v", err)
		}
		var st SweepStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode sweep: %v", err)
		}
		if st.State != SweepRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still running after %v: %+v", id, timeout, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSweepExpand(t *testing.T) {
	spec := SweepSpec{
		Schemes:   []string{"fpb", "ideal"},
		Workloads: []string{"mcf_m", "xal_m"},
		Seed:      7,
	}
	units, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 4 {
		t.Fatalf("got %d units, want 4", len(units))
	}
	// Deterministic scheme-major order and stable keys.
	wantOrder := []string{"fpb/mcf_m", "fpb/xal_m", "ideal/mcf_m", "ideal/xal_m"}
	for i, u := range units {
		if got := u.Scheme + "/" + u.Workload; got != wantOrder[i] {
			t.Fatalf("unit %d: got %s, want %s", i, got, wantOrder[i])
		}
		if len(u.Key) != 64 {
			t.Fatalf("unit %d: malformed key %q", i, u.Key)
		}
		if u.Index != i {
			t.Fatalf("unit %d: index %d", i, u.Index)
		}
	}
	again, _ := spec.Expand()
	for i := range units {
		if units[i].Key != again[i].Key {
			t.Fatalf("unit %d: key changed across expansions", i)
		}
	}

	// One bad scheme rejects the whole sweep.
	bad := spec
	bad.Schemes = []string{"fpb", "no-such-scheme"}
	if _, err := bad.Expand(); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
	if _, err := (SweepSpec{Workloads: []string{"mcf_m"}}).Expand(); err == nil {
		t.Fatal("expected error for empty schemes")
	}
}

// TestSweepDeterministicAcrossFleet is the core acceptance check: a 3-node
// fleet sweep over 2 schemes × 2 workloads (real engine) returns Results
// byte-identical to running the same configs in process.
func TestSweepDeterministicAcrossFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine fleet sweep")
	}
	spec := SweepSpec{
		Schemes:        []string{"fpb", "ideal"},
		Workloads:      []string{"mcf_m", "xal_m"},
		Seed:           42,
		InstrPerCore:   1000,
		IncludeResults: true,
	}
	units, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// In-process reference, bytes per key.
	ref := make(map[string][]byte, len(units))
	for _, u := range units {
		js := serve.JobSpec{Workload: u.Workload, Scheme: u.Scheme, Seed: spec.Seed, InstrPerCore: spec.InstrPerCore}
		cfg, wl, err := js.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		res, err := system.RunWorkload(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(res)
		ref[u.Key] = b
	}

	h := startFleet(t, 3, nil)
	defer h.stop(nil)

	st := postSweep(t, h.addrs[0], spec, true)
	if st.State != SweepDone {
		t.Fatalf("sweep state %s (err %q), want done", st.State, st.Error)
	}
	if st.Completed != len(units) || st.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", st.Completed, st.Failed, len(units))
	}
	for _, jo := range st.Jobs {
		if jo.State != serve.StateDone || jo.Result == nil {
			t.Fatalf("unit %s/%s: state %s err %q", jo.Scheme, jo.Workload, jo.State, jo.Error)
		}
		got, _ := json.Marshal(*jo.Result)
		if !bytes.Equal(got, ref[jo.Key]) {
			t.Errorf("unit %s/%s: fleet result differs from in-process run", jo.Scheme, jo.Workload)
		}
	}

	// Replication: every unit's result is readable, byte-identical, from
	// every one of the first R ring owners of its key.
	ring := h.nodes[0].Coordinator().Ring()
	for _, u := range units {
		for _, owner := range ring.Owners(u.Key, 2) {
			resp, err := http.Get(owner + "/v1/results/" + u.Key)
			if err != nil {
				t.Fatalf("GET result from %s: %v", owner, err)
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				t.Fatalf("replica %s missing result %s: %s", owner, u.Key[:8], resp.Status)
			}
			var res system.Result
			err = json.NewDecoder(resp.Body).Decode(&res)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			got, _ := json.Marshal(res)
			if !bytes.Equal(got, ref[u.Key]) {
				t.Errorf("replica %s: stored result differs for %s", owner, u.Key[:8])
			}
		}
	}

	// Submitting the identical sweep again is answered entirely from the
	// stores (cache hits), still byte-identical.
	st2 := postSweep(t, h.addrs[1], spec, true)
	if st2.State != SweepDone {
		t.Fatalf("repeat sweep state %s, want done", st2.State)
	}
	for _, jo := range st2.Jobs {
		got, _ := json.Marshal(*jo.Result)
		if !bytes.Equal(got, ref[jo.Key]) {
			t.Errorf("repeat unit %s/%s differs", jo.Scheme, jo.Workload)
		}
		if !jo.Cached {
			t.Errorf("repeat unit %s/%s not served from cache", jo.Scheme, jo.Workload)
		}
	}
}

// fakeResult is the deterministic stand-in simulation used by failover
// tests: a pure function of (config, workload), so any node computes the
// same bytes.
func fakeResult(cfg sim.Config, wl string) system.Result {
	return system.Result{
		Workload: wl,
		Scheme:   cfg.Scheme.String(),
		CPI:      float64(cfg.Seed%97) + 1,
		Instrs:   cfg.InstrPerCore,
		Metrics:  map[string]float64{"fake.seed": float64(cfg.Seed)},
	}
}

// TestSweepCompletesWhenNodeKilledMidSweep kills a node while its units are
// in flight and asserts the sweep still completes with results identical to
// an undisturbed run — the replica-failover acceptance criterion.
func TestSweepCompletesWhenNodeKilledMidSweep(t *testing.T) {
	spec := SweepSpec{
		Schemes:        []string{"fpb", "ideal", "gcp", "dimm-only"},
		Workloads:      []string{"mcf_m", "xal_m", "mum_m", "lbm_m"},
		Seed:           9,
		InstrPerCore:   500,
		IncludeResults: true,
	}
	units, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	defer release()

	victimStarted := make(chan struct{})
	var startedOnce sync.Once

	// Every node's simulate blocks on the gate; the victim (chosen after
	// placement is known) additionally signals when it starts simulating,
	// so the kill provably lands mid-sweep.
	victim := -1
	h := startFleet(t, 3, func(node int) serve.SimulateFunc {
		return func(cfg sim.Config, wl string) (system.Result, error) {
			if node == victim {
				startedOnce.Do(func() { close(victimStarted) })
			}
			<-gate
			return fakeResult(cfg, wl), nil
		}
	})
	skip := map[int]bool{}
	defer func() { h.stop(skip) }()

	// Choose coordinator and victim from actual placement: the coordinator
	// is any node that does not own every unit; the victim is a different
	// node that owns at least one unit (so failover provably happens).
	ring := h.nodes[0].Coordinator().Ring()
	owned := make(map[string]int)
	for _, u := range units {
		owned[ring.Owner(u.Key)]++
	}
	coordIdx, victimIdx := -1, -1
	for i, a := range h.addrs {
		if owned[a] < len(units) && coordIdx < 0 {
			coordIdx = i
		}
	}
	for i, a := range h.addrs {
		if i != coordIdx && owned[a] > 0 {
			victimIdx = i
			break
		}
	}
	if coordIdx < 0 || victimIdx < 0 {
		t.Fatalf("degenerate placement: %v", owned) // ~3·(1/3)^16 odds
	}
	victim = victimIdx
	skip[victimIdx] = true // killed below; Drain would be redundant

	st := postSweep(t, h.addrs[coordIdx], spec, false)
	select {
	case <-victimStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("victim never started simulating")
	}
	h.kill(victimIdx)
	release()

	final := pollSweep(t, h.addrs[coordIdx], st.ID, 30*time.Second)
	if final.State != SweepDone {
		t.Fatalf("sweep state %s (err %q), want done despite node kill", final.State, final.Error)
	}
	if final.Completed != len(units) {
		t.Fatalf("completed %d, want %d", final.Completed, len(units))
	}
	if n := final.PerNode[h.addrs[victimIdx]]; n != 0 {
		t.Fatalf("killed node credited with %d completions", n)
	}
	failedOver := false
	for _, jo := range final.Jobs {
		if jo.State != serve.StateDone || jo.Result == nil {
			t.Fatalf("unit %s/%s: state %s err %q", jo.Scheme, jo.Workload, jo.State, jo.Error)
		}
		if jo.Attempts > 1 {
			failedOver = true
		}
		js := serve.JobSpec{Workload: jo.Workload, Scheme: jo.Scheme, Seed: spec.Seed, InstrPerCore: spec.InstrPerCore}
		cfg, wl, _ := js.Resolve()
		want, _ := json.Marshal(fakeResult(cfg, wl))
		got, _ := json.Marshal(*jo.Result)
		if !bytes.Equal(got, want) {
			t.Errorf("unit %s/%s: result differs after failover", jo.Scheme, jo.Workload)
		}
	}
	if !failedOver {
		t.Error("no unit recorded a failover attempt despite the kill")
	}

	// The coordinator's metrics recorded the event.
	resp, err := http.Get(h.addrs[coordIdx] + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, needle := range []string{"cluster_jobs_failovers", "cluster_ring_members 3", "cluster_sweeps_done"} {
		if !strings.Contains(text, needle) {
			t.Errorf("metrics exposition missing %q", needle)
		}
	}
}

func TestNodeEndpoints(t *testing.T) {
	h := startFleet(t, 1, func(int) serve.SimulateFunc {
		return func(cfg sim.Config, wl string) (system.Result, error) { return fakeResult(cfg, wl), nil }
	})
	defer h.stop(nil)
	addr := h.addrs[0]

	// Members.
	resp, err := http.Get(addr + "/v1/cluster/members")
	if err != nil {
		t.Fatal(err)
	}
	var ms MembersStatus
	json.NewDecoder(resp.Body).Decode(&ms)
	resp.Body.Close()
	if ms.Self != h.addrs[0] || len(ms.Members) != 1 || ms.Replicas != 2 {
		t.Fatalf("members: %+v", ms)
	}
	if s := ms.Shares[ms.Self]; s < 0.999 || s > 1.001 {
		t.Fatalf("single node should own the whole keyspace, got %v", s)
	}

	// Bad sweep spec.
	resp, _ = http.Post(addr+"/v1/sweeps", "application/json", strings.NewReader(`{"schemes":["fpb"]}`))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty workloads: %s", resp.Status)
	}
	resp.Body.Close()

	// Unknown sweep id.
	resp, _ = http.Get(addr + "/v1/sweeps/s999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sweep: %s", resp.Status)
	}
	resp.Body.Close()
	resp, _ = http.Post(addr+"/v1/sweeps/s999999/cancel", "application/json", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: %s", resp.Status)
	}
	resp.Body.Close()

	// A working sweep appears in the list.
	st := postSweep(t, addr, SweepSpec{Schemes: []string{"fpb"}, Workloads: []string{"mcf_m"}, Seed: 3}, true)
	if st.State != SweepDone || st.Completed != 1 {
		t.Fatalf("sweep: %+v", st)
	}
	resp, _ = http.Get(addr + "/v1/sweeps")
	var list []SweepStatus
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list: %+v", list)
	}

	// Replica intake round-trips through the store.
	key := strings.Repeat("ab", 32)
	body, _ := json.Marshal(ReplicaPut{Key: key, Result: system.Result{Workload: "w", Cycles: 5}})
	resp, _ = http.Post(addr+"/v1/replicate", "application/json", bytes.NewReader(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replicate: %s", resp.Status)
	}
	resp.Body.Close()
	res, ok, err := h.nodes[0].Server().Store().Get(key)
	if err != nil || !ok || res.Cycles != 5 {
		t.Fatalf("replicated entry: %v %v %+v", ok, err, res)
	}
	// Malformed keys are rejected, not written.
	body, _ = json.Marshal(ReplicaPut{Key: "../evil", Result: system.Result{}})
	resp, _ = http.Post(addr+"/v1/replicate", "application/json", bytes.NewReader(body))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed replicate key: %s", resp.Status)
	}
	resp.Body.Close()
}

func TestSweepCancel(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	h := startFleet(t, 1, func(int) serve.SimulateFunc {
		return func(cfg sim.Config, wl string) (system.Result, error) {
			<-gate
			return fakeResult(cfg, wl), nil
		}
	})
	defer func() { release(); h.stop(nil) }()
	addr := h.addrs[0]

	st := postSweep(t, addr, SweepSpec{Schemes: []string{"fpb", "ideal"}, Workloads: []string{"mcf_m", "xal_m"}, Seed: 5}, false)
	resp, err := http.Post(addr+"/v1/sweeps/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	release()
	final := pollSweep(t, addr, st.ID, 10*time.Second)
	if final.State != SweepCancelled && final.State != SweepDone {
		// Cancelled is expected; Done is a benign race when the release
		// beats the cancellation into the workers.
		t.Fatalf("state after cancel: %s", final.State)
	}
}

// TestSweepWarmStartSingleNode runs a real warm sweep on a one-node fleet:
// three schemes share one warmup prefix, so the node simulates the warmup
// once, warm-starts the other two units, and every result is byte-identical
// to a cold in-process run of the same declared config.
func TestSweepWarmStartSingleNode(t *testing.T) {
	h := startFleet(t, 1, nil)
	defer h.stop(nil)

	spec := SweepSpec{
		Schemes:        []string{"dimm+chip", "gcp", "fpb"},
		Workloads:      []string{"mcf_m"},
		InstrPerCore:   3000,
		WarmupCycles:   40_000,
		WarmupScheme:   "dimm+chip",
		IncludeResults: true,
	}
	st := postSweep(t, h.addrs[0], spec, true)
	if st.State != SweepDone || st.Completed != 3 {
		t.Fatalf("sweep: state %s completed %d/%d err %q", st.State, st.Completed, st.Total, st.Error)
	}
	for _, jo := range st.Jobs {
		js := serve.JobSpec{
			Workload:     jo.Workload,
			Scheme:       jo.Scheme,
			InstrPerCore: spec.InstrPerCore,
			WarmupCycles: spec.WarmupCycles,
			WarmupScheme: spec.WarmupScheme,
		}
		cfg, wl, err := js.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		want, err := system.RunWorkload(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		want.Workload = wl
		got, err := json.Marshal(jo.Result)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cold) {
			t.Errorf("scheme %s: swept result differs from cold run", jo.Scheme)
		}
	}

	// The node warm-started every unit after the first.
	resp, err := http.Get(h.addrs[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m["serve.jobs.warm_starts"] != 2 {
		t.Errorf("warm_starts = %v, want 2", m["serve.jobs.warm_starts"])
	}
	if m["serve.ckpt.entries"] != 1 {
		t.Errorf("ckpt.entries = %v, want 1 (one shared prefix)", m["serve.ckpt.entries"])
	}
}

// TestSweepCancelWhileGated cancels a sweep while one unit is stuck in the
// simulation and the rest wait for the node's only dispatch slot. The sweep
// must settle as cancelled with no failed unit and no jobs-failed count:
// cancelled is not failed.
func TestSweepCancelWhileGated(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	co, err := NewCoordinator(CoordinatorConfig{
		Self:            "http://self:1",
		Replicas:        1,
		PerNodeInflight: 1,
		Local: func(spec serve.JobSpec) (serve.JobStatus, bool, error) {
			entered <- struct{}{}
			<-gate
			cfg, wl, err := spec.Resolve()
			if err != nil {
				return serve.JobStatus{}, false, err
			}
			res := fakeResult(cfg, wl)
			return serve.JobStatus{State: serve.StateDone, Result: &res}, false, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Shutdown()
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Shutdown, which waits for the gated unit
	reg := obs.NewRegistry()
	co.Instrument(reg)

	st, err := co.Submit(SweepSpec{Schemes: []string{"fpb", "ideal"}, Workloads: []string{"mcf_m", "xal_m"}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // one unit holds the dispatch slot; three wait for it
	co.Cancel(st.ID)
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, _ := co.Status(st.ID)
		if cur.Cancelled == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiting units never settled as cancelled: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := co.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != SweepCancelled || final.Failed != 0 || final.Completed != 1 || final.Cancelled != 3 {
		t.Fatalf("final status: state %s completed %d failed %d cancelled %d",
			final.State, final.Completed, final.Failed, final.Cancelled)
	}
	for _, jo := range final.Jobs {
		if jo.State != serve.StateDone && jo.State != UnitCancelled {
			t.Errorf("unit %s/%s settled as %s", jo.Scheme, jo.Workload, jo.State)
		}
	}
	for name, want := range map[string]float64{
		"cluster.jobs.failed": 0, "cluster.jobs.cancelled": 3, "cluster.jobs.done": 1,
		"cluster.sweeps.cancelled": 1, "cluster.sweeps.failed": 0,
	} {
		if got, _ := reg.Value(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
