package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpb/internal/sim"
	"fpb/internal/system"
)

// fakeResult builds a deterministic result that depends on the job identity,
// so tests can check the right entry came back.
func fakeResult(cfg sim.Config, wl string) system.Result {
	return system.Result{
		Workload: wl,
		Scheme:   cfg.Scheme.String(),
		CPI:      float64(cfg.Seed%97) + 1,
		Instrs:   cfg.InstrPerCore,
		Metrics:  map[string]float64{"fake.seed": float64(cfg.Seed)},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func postJob(t *testing.T, url string, spec JobSpec, query string) (int, JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, st
}

func getMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// spec returns a small valid job spec; seed varies the job identity.
func spec(seed uint64) JobSpec {
	return JobSpec{Workload: "mcf_m", Scheme: "fpb", Seed: seed, InstrPerCore: 1000}
}

// --- Acceptance (a): k concurrent identical requests, one simulation ---

func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	const k = 8
	var sims atomic.Int64
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers:    4,
		QueueDepth: 16,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			sims.Add(1)
			<-release
			return fakeResult(cfg, wl), nil
		},
	})

	type reply struct {
		code int
		st   JobStatus
	}
	replies := make(chan reply, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, st := postJob(t, ts.URL, spec(7), "")
			replies <- reply{code, st}
		}()
	}
	// Hold the simulation until every request has either started the one
	// job or coalesced onto it, so no request can arrive late and miss
	// the in-flight window.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := getMetrics(t, ts.URL)
		if m["serve.jobs.coalesced"] == k-1 && m["serve.jobs.accepted"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never coalesced: %v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(replies)

	if n := sims.Load(); n != 1 {
		t.Fatalf("%d identical requests ran %d simulations, want 1", k, n)
	}
	var first *JobStatus
	cachedCount := 0
	for r := range replies {
		if r.code != http.StatusOK {
			t.Fatalf("status %d: %+v", r.code, r.st)
		}
		if r.st.State != StateDone || r.st.Result == nil {
			t.Fatalf("bad reply: %+v", r.st)
		}
		if r.st.Cached {
			cachedCount++
		}
		if first == nil {
			first = &r.st
			continue
		}
		if r.st.ID != first.ID || r.st.Key != first.Key {
			t.Errorf("replies name different jobs: %s vs %s", r.st.ID, first.ID)
		}
		if !reflect.DeepEqual(r.st.Result, first.Result) {
			t.Errorf("replies differ: %+v vs %+v", r.st.Result, first.Result)
		}
	}
	if cachedCount != k-1 {
		t.Errorf("%d replies marked cached/coalesced, want %d", cachedCount, k-1)
	}
}

// --- Acceptance (b): restart over the same store serves from disk ---

func TestRestartServesFromPersistentStore(t *testing.T) {
	dir := t.TempDir()
	var sims atomic.Int64
	s1, ts1 := newTestServer(t, Config{
		Workers:  2,
		StoreDir: dir,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			sims.Add(1)
			return fakeResult(cfg, wl), nil
		},
	})
	code, st1 := postJob(t, ts1.URL, spec(41), "")
	if code != http.StatusOK || st1.State != StateDone {
		t.Fatalf("first run: %d %+v", code, st1)
	}
	if st1.Cached {
		t.Error("first ever run reported cached")
	}
	ts1.Close()
	s1.Drain()

	// "Restart": a fresh server over the same directory whose simulator
	// must never run.
	_, ts2 := newTestServer(t, Config{
		Workers:  2,
		StoreDir: dir,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			t.Error("restarted daemon re-simulated a stored job")
			return fakeResult(cfg, wl), nil
		},
	})
	code, st2 := postJob(t, ts2.URL, spec(41), "")
	if code != http.StatusOK || st2.State != StateDone {
		t.Fatalf("warm run: %d %+v", code, st2)
	}
	if !st2.Cached {
		t.Error("warm run not marked cached")
	}
	if !reflect.DeepEqual(st1.Result, st2.Result) {
		t.Errorf("stored result differs:\n%+v\n%+v", st1.Result, st2.Result)
	}
	if sims.Load() != 1 {
		t.Errorf("simulations = %d, want 1", sims.Load())
	}
	m := getMetrics(t, ts2.URL)
	if m["serve.cache.hits"] != 1 {
		t.Errorf("cache hits = %v, want 1", m["serve.cache.hits"])
	}
	if m["serve.store.entries"] != 1 {
		t.Errorf("store entries = %v, want 1", m["serve.store.entries"])
	}
}

// --- Acceptance (c): queue saturation answers 429 and never deadlocks ---

func TestQueueSaturationRejectsWithoutDeadlock(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		RetryAfter: 3 * time.Second,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			started <- struct{}{}
			<-release
			return fakeResult(cfg, wl), nil
		},
	})

	// Job 1 occupies the only worker; job 2 fills the queue.
	_, stA := postJob(t, ts.URL, spec(1), "?async=1")
	<-started
	_, stB := postJob(t, ts.URL, spec(2), "?async=1")

	// The pool is saturated: further distinct jobs must be pushed back.
	body, _ := json.Marshal(spec(3))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue answered %d (%s), want 429", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want %q", ra, "3")
	}
	m := getMetrics(t, ts.URL)
	if m["serve.jobs.rejected"] != 1 {
		t.Errorf("rejected = %v, want 1", m["serve.jobs.rejected"])
	}

	// Releasing the worker drains everything; the rejected job succeeds
	// on resubmission. Nothing deadlocks.
	close(release)
	for _, id := range []string{stA.ID, stB.ID} {
		waitJobDone(t, ts.URL, id)
	}
	code, stC := postJob(t, ts.URL, spec(3), "")
	if code != http.StatusOK || stC.State != StateDone {
		t.Fatalf("post-saturation job: %d %+v", code, stC)
	}
}

func waitJobDone(t *testing.T, url, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone {
			return st
		}
		if st.State == StateFailed {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- Acceptance (d): shutdown drains in-flight jobs, no lost responses ---

func TestDrainCompletesInFlightJobs(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:    2,
		QueueDepth: 8,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			started <- struct{}{}
			<-release
			return fakeResult(cfg, wl), nil
		},
	})

	const jobs = 3 // 2 running + 1 queued at drain time
	replies := make(chan JobStatus, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			code, st := postJob(t, ts.URL, spec(seed), "")
			if code != http.StatusOK {
				t.Errorf("drained job got status %d: %+v", code, st)
				return
			}
			replies <- st
		}(uint64(100 + i))
	}
	<-started
	<-started // both workers busy
	// The third POST races the two above: wait until it sits in the
	// queue, or Drain could beat it and it would be refused with 503.
	queued := time.Now().Add(10 * time.Second)
	for {
		if d, _ := s.Registry().Value("serve.queue.depth"); d == 1 {
			break
		}
		if time.Now().After(queued) {
			t.Fatal("third job never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()

	// A draining server refuses new work with 503.
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, _ := json.Marshal(spec(999))
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server never refused new work")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned")
	}
	wg.Wait()
	close(replies)
	got := 0
	for st := range replies {
		if st.State != StateDone || st.Result == nil {
			t.Errorf("lost or failed response: %+v", st)
			continue
		}
		got++
	}
	if got != jobs {
		t.Errorf("drain delivered %d/%d responses", got, jobs)
	}
}

// --- Determinism: served results match in-process simulation exactly ---

func TestServedResultMatchesInProcessRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	_, ts := newTestServer(t, Config{Workers: 1}) // default Simulate = system.RunWorkload

	js := spec(0) // default seed
	cfg, wl, err := js.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := system.RunWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}

	code, st := postJob(t, ts.URL, js, "")
	if code != http.StatusOK || st.State != StateDone || st.Result == nil {
		t.Fatalf("served run: %d %+v", code, st)
	}
	if !reflect.DeepEqual(*st.Result, want) {
		t.Errorf("served result differs from in-process run:\nserved %+v\nlocal  %+v", *st.Result, want)
	}
	if st.Key != system.Key(cfg, wl) {
		t.Errorf("served key %s != canonical key", st.Key)
	}
}

// --- API edges ---

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:  1,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) { return fakeResult(cfg, wl), nil },
	})
	cases := []struct {
		name string
		body string
	}{
		{"empty workload", `{}`},
		{"bad scheme", `{"workload":"mcf_m","scheme":"warp-drive"}`},
		{"bad mapping", `{"workload":"mcf_m","mapping":"zigzag"}`},
		{"unknown field", `{"workload":"mcf_m","wat":1}`},
		{"syntax", `{"workload":`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestBadCacheGeometryRejected submits configs whose caches cannot be
// built to a server running the real simulator: each must be refused with
// 400 at submission, and the server must keep answering afterwards.
func TestBadCacheGeometryRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}) // default Simulate = system.RunWorkload
	for _, tc := range []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"zero L3 ways", func(c *sim.Config) { c.L3Ways = 0 }},
		{"zero L3 size", func(c *sim.Config) { c.L3SizeMB = 0 }},
		{"zero L2 size", func(c *sim.Config) { c.L2SizeKB = 0 }},
		{"huge L3 size", func(c *sim.Config) { c.L3SizeMB = 1 << 20 }},
		{"huge core count", func(c *sim.Config) { c.Cores = 1 << 30 }},
		{"huge bank count", func(c *sim.Config) { c.Banks = 1 << 40 }},
		// One 1 GiB line per one-way L3: tiny cache metadata, but a
		// 16-line store slab is 16 GiB and each mapping table 64 GiB.
		{"huge L3 line", func(c *sim.Config) { c.L3LineB, c.L3SizeMB, c.L3Ways = 1<<30, 1<<10, 1 }},
	} {
		cfg := sim.DefaultConfig()
		cfg.InstrPerCore = 1000
		tc.mut(&cfg)
		code, st := postJob(t, ts.URL, JobSpec{Workload: "mcf_m", Config: &cfg}, "")
		if code != http.StatusBadRequest || st.Error == "" {
			t.Errorf("%s: status %d %+v, want 400 with an error", tc.name, code, st)
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("%s: server stopped answering: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: healthz after the bad job: status %d", tc.name, resp.StatusCode)
		}
	}
}

func TestFailedSimulationReports422(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			return system.Result{}, fmt.Errorf("no such workload %q", wl)
		},
	})
	code, st := postJob(t, ts.URL, spec(5), "")
	if code != http.StatusUnprocessableEntity || st.State != StateFailed {
		t.Fatalf("failed sim: %d %+v", code, st)
	}
	if st.Error == "" {
		t.Error("failure carried no error message")
	}
}

func TestAsyncLifecycle(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			<-release
			return fakeResult(cfg, wl), nil
		},
	})
	code, st := postJob(t, ts.URL, spec(9), "?async=1")
	if code != http.StatusAccepted {
		t.Fatalf("async submit: %d %+v", code, st)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("async state = %s", st.State)
	}
	close(release)
	final := waitJobDone(t, ts.URL, st.ID)
	if final.Result == nil || final.Result.Workload != "mcf_m" {
		t.Errorf("async result: %+v", final.Result)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:  1,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) { return fakeResult(cfg, wl), nil },
	})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("healthz body: %v", body)
	}
}
