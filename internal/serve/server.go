package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"fpb/internal/ckpt"
	"fpb/internal/obs"
	"fpb/internal/sim"
	"fpb/internal/stats"
	"fpb/internal/system"
)

// SimulateFunc runs one simulation; the default is
// system.RunWorkloadCheckpointed against the server's checkpoint store.
// Tests inject counters, sleeps, and failures through it.
type SimulateFunc func(sim.Config, string) (system.Result, error)

// Config sizes a Server.
type Config struct {
	// Workers bounds concurrent simulations (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 64). A full
	// queue rejects new work with 429 + Retry-After instead of blocking.
	QueueDepth int
	// StoreDir roots the persistent result store; empty disables
	// persistence (results then live only as long as the job records).
	StoreDir string
	// CheckpointDir roots the warmup checkpoint store; empty disables
	// warm-starting. Jobs declaring a warmup phase (WarmupCycles > 0) then
	// simulate each distinct warmup prefix once, checkpoint it, and restore
	// it for every later job sharing the prefix — results are byte-identical
	// either way. The store is also exposed over GET/PUT
	// /v1/checkpoints/{key} so sweep coordinators can seed sibling nodes.
	CheckpointDir string
	// RetryAfter is advertised on 429 responses (default 1s).
	RetryAfter time.Duration
	// MaxJobRecords bounds completed job records kept for async polling
	// (default 1024); the oldest finished records are evicted first.
	MaxJobRecords int
	// Simulate overrides the simulation function (default
	// system.RunWorkloadCheckpointed against the CheckpointDir store).
	// Used by tests.
	Simulate SimulateFunc
	// Logger receives structured job-lifecycle logs (every line carries
	// the job's correlation ID). nil discards them — tests and embedders
	// that don't care stay silent.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in
	// because profiling endpoints on a fleet daemon are an operator
	// decision, not a default.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxJobRecords <= 0 {
		c.MaxJobRecords = 1024
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// job is one accepted unit of work. Its fields past done are written by the
// completing worker before done is closed and are read-only afterwards.
type job struct {
	id  string
	key string
	cfg sim.Config
	wl  string

	acceptedAt time.Time // when submit admitted it (wall clock)

	done chan struct{} // closed exactly once, on completion

	// Guarded by Server.mu until done is closed.
	state JobState
	res   system.Result
	err   error
	lc    Lifecycle // per-job lifecycle record, keyed by id everywhere
}

// status snapshots a job into its wire form. Callers must hold Server.mu
// unless the job's done channel is already closed.
func (j *job) status() JobStatus {
	st := JobStatus{ID: j.id, Key: j.key, State: j.state}
	switch j.state {
	case StateDone:
		res := j.res
		st.Result = &res
	case StateFailed:
		st.Error = j.err.Error()
	}
	if j.lc.Outcome != "" {
		lc := j.lc
		st.Lifecycle = &lc
	}
	return st
}

// Server implements the simulation service. Create with New, mount as an
// http.Handler, stop with Drain.
type Server struct {
	cfg   Config
	store *Store      // nil when persistence is disabled
	ckpt  *ckpt.Store // nil when warm-starting is disabled
	reg   *obs.Registry
	log   *slog.Logger
	mux   *http.ServeMux
	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	inflight map[string]*job // queued or running, by key — the dedupe table
	jobs     map[string]*job // every known job, by id (async polling)
	order    []string        // job ids in acceptance order, for eviction
	nextID   uint64
	busy     int // workers currently simulating

	// Metrics. Counters and histograms are individually thread-safe
	// (sync/atomic); gauge closures read mu-guarded fields WITHOUT
	// locking, so every registry snapshot happens under mu (see
	// registerMetrics).
	cAccepted, cCoalesced, cRejected *obs.Counter
	cDone, cFailed                   *obs.Counter
	cHits, cMisses                   *obs.Counter
	cStoreErrors                     *obs.Counter
	cWarmStarts                      *obs.Counter
	latency                          *stats.Histogram // job latency, ms (legacy percentile gauges)
	hQueueWait, hSim, hStore         *obs.Histogram   // lifecycle stage histograms, ms
}

// New builds a server, opens its store, and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		log:      cfg.Logger,
		queue:    make(chan *job, cfg.QueueDepth),
		inflight: make(map[string]*job),
		jobs:     make(map[string]*job),
		latency:  stats.NewHistogram(60_000),
	}
	if cfg.StoreDir != "" {
		st, err := OpenStore(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	if cfg.CheckpointDir != "" {
		cs, err := ckpt.NewStore(cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		s.ckpt = cs
	}
	s.registerMetrics()
	if s.cfg.Simulate == nil {
		// Default backend: route through the checkpoint store so jobs
		// sharing a warmup prefix simulate it once per node. With a nil
		// store this is plain system.RunWorkload.
		s.cfg.Simulate = func(cfg sim.Config, wl string) (system.Result, error) {
			res, warmed, err := system.RunWorkloadCheckpointed(cfg, wl, s.ckpt)
			if warmed {
				s.cWarmStarts.Inc()
			}
			return res, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /v1/checkpoints/{key}", s.handleCheckpointGet)
	s.mux.HandleFunc("PUT /v1/checkpoints/{key}", s.handleCheckpointPut)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// registerMetrics populates the server's obs registry. Gauge closures read
// mu-guarded fields WITHOUT locking: every reader (the /metrics and /healthz
// handlers) snapshots the registry while already holding mu.
func (s *Server) registerMetrics() {
	s.cAccepted = s.reg.Counter("serve.jobs.accepted")
	s.cCoalesced = s.reg.Counter("serve.jobs.coalesced")
	s.cRejected = s.reg.Counter("serve.jobs.rejected")
	s.cDone = s.reg.Counter("serve.jobs.done")
	s.cFailed = s.reg.Counter("serve.jobs.failed")
	s.cHits = s.reg.Counter("serve.cache.hits")
	s.cMisses = s.reg.Counter("serve.cache.misses")
	s.cStoreErrors = s.reg.Counter("serve.store.put_errors")
	s.cWarmStarts = s.reg.Counter("serve.jobs.warm_starts")
	s.reg.Gauge("serve.queue.depth", func() float64 { return float64(len(s.queue)) })
	s.reg.Gauge("serve.queue.capacity", func() float64 { return float64(s.cfg.QueueDepth) })
	s.reg.Gauge("serve.workers.busy", func() float64 { return float64(s.busy) })
	s.reg.Gauge("serve.workers.total", func() float64 { return float64(s.cfg.Workers) })
	s.reg.Gauge("serve.jobs.records", func() float64 { return float64(len(s.jobs)) })
	s.reg.Gauge("serve.latency_ms.p50", func() float64 { return float64(s.latency.P50()) })
	s.reg.Gauge("serve.latency_ms.p95", func() float64 { return float64(s.latency.P95()) })
	s.reg.Gauge("serve.latency_ms.p99", func() float64 { return float64(s.latency.P99()) })
	s.reg.Gauge("serve.latency_ms.mean", func() float64 { return s.latency.Mean() })
	s.hQueueWait = s.reg.Histogram("serve.job.queue_wait_ms", obs.LatencyBucketsMs)
	s.hSim = s.reg.Histogram("serve.job.sim_ms", obs.LatencyBucketsMs)
	s.hStore = s.reg.Histogram("serve.job.store_write_ms", obs.LatencyBucketsMs)
	for name, help := range map[string]string{
		"serve.jobs.accepted":      "jobs admitted to the queue (store misses only)",
		"serve.jobs.coalesced":     "requests coalesced onto an identical in-flight job",
		"serve.jobs.rejected":      "jobs rejected with 429 (queue full)",
		"serve.jobs.done":          "simulations completed successfully",
		"serve.jobs.failed":        "simulations that returned an error",
		"serve.cache.hits":         "requests answered from the persistent result store",
		"serve.cache.misses":       "requests that required a fresh simulation",
		"serve.store.put_errors":   "persistence failures (results degraded to memory-only)",
		"serve.jobs.warm_starts":   "simulations restored from a warmup checkpoint",
		"serve.queue.depth":        "jobs waiting for a worker",
		"serve.queue.capacity":     "queue slots before 429 pushback",
		"serve.workers.busy":       "workers currently simulating",
		"serve.workers.total":      "worker pool size",
		"serve.jobs.records":       "job records retained for async polling",
		"serve.job.queue_wait_ms":  "accept-to-dequeue wait per job (ms)",
		"serve.job.sim_ms":         "simulation runtime per job (ms)",
		"serve.job.store_write_ms": "persistent store write latency per job (ms)",
	} {
		s.reg.SetHelp(name, help)
	}
	if s.store != nil {
		// Store.Len does its own IO and needs no lock.
		s.reg.Gauge("serve.store.entries", func() float64 { return float64(s.store.Len()) })
		s.reg.SetHelp("serve.store.entries", "results in the content-addressed store")
	}
	if s.ckpt != nil {
		s.reg.Gauge("serve.ckpt.entries", func() float64 {
			n, _ := s.ckpt.Len()
			return float64(n)
		})
		s.reg.SetHelp("serve.ckpt.entries", "warmup checkpoint images in the store")
	}
}

// Registry exposes the server's metrics registry (e.g. for logging at exit).
// The cluster layer registers its ring/sweep series here so one /metrics
// scrape covers a node's serving and fleet state.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Store exposes the content-addressed result store (nil when persistence is
// disabled). The cluster layer writes replicated results through it and the
// /v1/results endpoint reads from it.
func (s *Server) Store() *Store { return s.store }

// CkptStore exposes the warmup checkpoint store (nil when warm-starting is
// disabled). The cluster layer seeds sibling nodes through it.
func (s *Server) CkptStore() *ckpt.Store { return s.ckpt }

// Logger exposes the server's structured logger so embedding layers (the
// cluster node) log through the same handler and level.
func (s *Server) Logger() *slog.Logger { return s.log }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// worker drains the queue until Drain closes it. Each dequeue stamps the
// job's lifecycle record (queue wait, simulation runtime, store-write
// latency) and logs start/finish with the job's correlation ID.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		start := time.Now()
		queueWait := start.Sub(j.acceptedAt)
		s.mu.Lock()
		j.state = StateRunning
		j.lc.QueueWaitMs = durMs(queueWait)
		s.busy++
		s.mu.Unlock()
		s.hQueueWait.Observe(durMs(queueWait))
		s.log.Debug("job start", "job", j.id, "key", j.key,
			"queue_wait_ms", durMs(queueWait))

		res, err := s.cfg.Simulate(j.cfg, j.wl)
		simDur := time.Since(start)
		s.hSim.Observe(durMs(simDur))
		var storeDur time.Duration
		if err == nil {
			res.Workload = j.wl
			if s.store != nil {
				putStart := time.Now()
				if perr := s.store.Put(j.key, res); perr != nil {
					// Persistence failures degrade to memory-only.
					s.cStoreErrors.Inc()
					s.log.Error("store put failed", "job", j.id, "key", j.key, "err", perr)
				}
				storeDur = time.Since(putStart)
				s.hStore.Observe(durMs(storeDur))
			}
		}

		s.mu.Lock()
		if err != nil {
			j.state, j.err = StateFailed, err
			s.cFailed.Inc()
		} else {
			j.state, j.res = StateDone, res
			s.cDone.Inc()
		}
		j.lc.SimMs = durMs(simDur)
		j.lc.StoreWriteMs = durMs(storeDur)
		s.busy--
		delete(s.inflight, j.key)
		s.latency.Add(int(time.Since(start).Milliseconds()))
		s.mu.Unlock()
		// Log before waking waiters, so a client holding the response
		// can rely on the job's final log line having been written.
		if err != nil {
			s.log.Warn("job failed", "job", j.id, "key", j.key,
				"sim_ms", durMs(simDur), "err", err)
		} else {
			s.log.Info("job done", "job", j.id, "key", j.key,
				"queue_wait_ms", durMs(queueWait), "sim_ms", durMs(simDur),
				"store_write_ms", durMs(storeDur))
		}
		close(j.done)
	}
}

// durMs converts a duration to fractional milliseconds (the unit of every
// lifecycle histogram and log field).
func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// formatRetryAfter renders the configured backoff as seconds for the
// Retry-After header — exactly, not rounded up to whole seconds, so clients
// configured with a sub-second RetryAfter back off for that long instead of
// a full second. Whole seconds stay integers (the RFC form); fractions are
// non-standard but our client parses them and third-party clients that
// don't simply fall back to their own default.
func formatRetryAfter(d time.Duration) string {
	if d%time.Second == 0 {
		return strconv.Itoa(int(d / time.Second))
	}
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// submit resolves a request to a job: a store hit returns an already-done
// synthetic job, an identical in-flight job coalesces, and otherwise a new
// job is enqueued — or rejected when the queue is full (coalesced=false,
// job=nil, httpErr carries the status to send).
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// Sentinel errors RunLocal maps the HTTP pushback statuses onto, so embedded
// callers (the cluster coordinator running a job on its own node) can
// distinguish "try again / try elsewhere" from a genuine failure without
// going through a loopback socket.
var (
	// ErrBusy is queue-full pushback (the 429 path).
	ErrBusy = errors.New("serve: job queue is full")
	// ErrDraining means the server is shutting down (the 503 path).
	ErrDraining = errors.New("serve: draining")
)

// RunLocal pushes one job through the server's full pipeline — store
// lookup, singleflight dedupe, queue, worker pool, persistence — and blocks
// until it finishes. It is exactly the sync POST /v1/jobs path minus HTTP:
// same backpressure (ErrBusy when the queue is full, ErrDraining during
// shutdown), same lifecycle records, same metrics. cached reports a store
// hit or coalesced join, like JobStatus.Cached.
func (s *Server) RunLocal(cfg sim.Config, wl string) (st JobStatus, cached bool, err error) {
	j, cached, herr := s.submit(cfg, wl)
	if herr != nil {
		switch herr.status {
		case http.StatusTooManyRequests:
			return JobStatus{}, false, ErrBusy
		case http.StatusServiceUnavailable:
			return JobStatus{}, false, ErrDraining
		default:
			return JobStatus{}, false, errors.New(herr.msg)
		}
	}
	<-j.done
	st = j.status() // done => fields frozen, no lock needed
	st.Cached = cached
	return st, cached, nil
}

func (s *Server) submit(cfg sim.Config, wl string) (j *job, cached bool, err *httpError) {
	key := system.Key(cfg, wl)

	// Store lookup happens outside mu (it is disk IO); the worst case of
	// racing a concurrent completion is a duplicate-free extra read.
	if s.store != nil {
		if res, ok, serr := s.store.Get(key); serr != nil {
			return nil, false, &httpError{http.StatusInternalServerError, serr.Error()}
		} else if ok {
			s.mu.Lock()
			s.cHits.Inc()
			j := s.newJobLocked(key, cfg, wl)
			j.state, j.res = StateDone, res
			j.lc.Outcome = OutcomeCacheHit
			s.mu.Unlock()
			close(j.done)
			s.log.Info("job cache hit", "job", j.id, "key", key, "workload", wl)
			return j, true, nil
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, &httpError{http.StatusServiceUnavailable, "server is draining"}
	}
	if j, ok := s.inflight[key]; ok {
		s.cCoalesced.Inc()
		j.lc.Coalesced++
		s.mu.Unlock()
		s.log.Info("job coalesced", "job", j.id, "key", key, "workload", wl)
		return j, true, nil
	}
	j = s.newJobLocked(key, cfg, wl)
	select {
	case s.queue <- j:
	default:
		// Queue full: forget the job record and push back.
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		s.cRejected.Inc()
		s.mu.Unlock()
		s.log.Warn("job rejected", "key", key, "workload", wl, "reason", "queue full")
		return nil, false, &httpError{http.StatusTooManyRequests, "job queue is full"}
	}
	j.lc.Outcome = OutcomeFresh
	s.inflight[key] = j
	s.cAccepted.Inc()
	s.cMisses.Inc()
	depth := len(s.queue)
	s.mu.Unlock()
	s.log.Info("job accepted", "job", j.id, "key", key, "workload", wl,
		"queue_depth", depth)
	return j, false, nil
}

// newJobLocked mints a job record — including its correlation ID, which
// every log line, lifecycle record and API response carries — and registers
// it for polling; mu held.
func (s *Server) newJobLocked(key string, cfg sim.Config, wl string) *job {
	s.nextID++
	j := &job{
		id:         fmt.Sprintf("j%06d-%s", s.nextID, key[:8]),
		key:        key,
		cfg:        cfg,
		wl:         wl,
		acceptedAt: time.Now(),
		done:       make(chan struct{}),
		state:      StateQueued,
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	return j
}

// evictLocked drops the oldest finished job records above MaxJobRecords.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.cfg.MaxJobRecords && len(s.order) > 0 {
		evicted := false
		for i, id := range s.order {
			j, ok := s.jobs[id]
			if !ok {
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
			if j.state == StateDone || j.state == StateFailed {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live; let the map grow rather than lose jobs
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := map[string]any{
		"status":      "ok",
		"queue_depth": len(s.queue),
		"busy":        s.busy,
		"draining":    s.draining,
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, body)
}

// metricsFormat negotiates the /metrics representation: an explicit
// ?format= wins, then the Accept header; bare requests keep getting the
// legacy JSON so pre-existing tooling never breaks.
func metricsFormat(r *http.Request) string {
	switch r.URL.Query().Get("format") {
	case "json":
		return "json"
	case "prometheus", "prom":
		return "prom"
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "application/json") {
		return "json"
	}
	// Prometheus scrapers send text/plain (with version params) or
	// application/openmetrics-text.
	if strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics") {
		return "prom"
	}
	return "json"
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := metricsFormat(r)
	// Snapshots run under mu: gauge closures read mu-guarded fields.
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if format == "prom" {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		err = s.reg.WritePrometheus(w)
	} else {
		w.Header().Set("Content-Type", "application/json")
		err = s.reg.WriteJSON(w)
	}
	if err != nil {
		// Headers are gone; nothing more to do than note it.
		s.log.Error("metrics dump failed", "format", format, "err", err)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeJSON(w, http.StatusBadRequest, JobStatus{State: StateFailed, Error: "bad request: " + err.Error()})
		return
	}
	cfg, wl, err := spec.Resolve()
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, JobStatus{State: StateFailed, Error: err.Error()})
		return
	}

	j, cached, herr := s.submit(cfg, wl)
	if herr != nil {
		if herr.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", formatRetryAfter(s.cfg.RetryAfter))
		}
		s.writeJSON(w, herr.status, JobStatus{State: StateFailed, Error: herr.msg})
		return
	}

	if r.URL.Query().Get("async") == "1" {
		s.mu.Lock()
		st := j.status()
		s.mu.Unlock()
		st.Cached = cached
		code := http.StatusAccepted
		if st.State == StateDone || st.State == StateFailed {
			code = http.StatusOK
		}
		s.writeJSON(w, code, st)
		return
	}

	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client went away; the job keeps running for any coalesced
		// waiters and for the store.
		s.log.Debug("client disconnected before completion", "job", j.id)
		return
	}
	st := j.status() // done => fields are frozen, no lock needed
	st.Cached = cached
	code := http.StatusOK
	if st.State == StateFailed {
		code = http.StatusUnprocessableEntity
	}
	s.writeJSON(w, code, st)
}

// handleResult serves a stored result by its content key, from the LOCAL
// store only — no proxying, no simulation. Replica-aware callers (the fleet
// client, the sweep coordinator's replication checks) use it to read a key
// from whichever ring owner answers; a miss is a plain 404 so the caller can
// move on to the next replica.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if s.store == nil {
		s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "no persistent store on this node"})
		return
	}
	res, ok, err := s.store.Get(key)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if !ok {
		s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "no result for key " + key})
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// handleCheckpointGet serves a raw warmup checkpoint image by its prefix key,
// from the LOCAL checkpoint store only. A sweep coordinator uses it to copy a
// warmed image from the node that produced it to siblings about to run grid
// points sharing the prefix.
func (s *Server) handleCheckpointGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if s.ckpt == nil {
		s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "no checkpoint store on this node"})
		return
	}
	if err := ckpt.ValidateKey(key); err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	img, ok, err := s.ckpt.Get(key)
	if err != nil {
		s.writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	if !ok {
		s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "no checkpoint for key " + key})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(img); err != nil {
		s.log.Debug("checkpoint send failed", "key", key, "err", err)
	}
}

// handleCheckpointPut accepts a raw checkpoint image for a key. The body is
// validated through ckpt.NewReader before it lands, so a corrupt or truncated
// upload is rejected instead of poisoning the store; images carry their own
// integrity trailer, so nothing beyond structural validity is checked here.
func (s *Server) handleCheckpointPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if s.ckpt == nil {
		s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "no checkpoint store on this node"})
		return
	}
	if err := ckpt.ValidateKey(key); err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	// Images hold whole PCM banks; 1 GiB is far above any real image but
	// still bounds a hostile upload.
	img, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<30))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "reading body: " + err.Error()})
		return
	}
	if _, err := ckpt.NewReader(img); err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid checkpoint image: " + err.Error()})
		return
	}
	if err := s.ckpt.Put(key, img); err != nil {
		s.writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	s.log.Info("checkpoint stored", "key", key, "bytes", len(img))
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var st JobStatus
	if ok {
		st = j.status()
	}
	s.mu.Unlock()
	if !ok {
		s.writeJSON(w, http.StatusNotFound, JobStatus{ID: id, State: StateFailed, Error: "unknown job id"})
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// Drain stops accepting new jobs, lets the queue and in-flight simulations
// finish (every sync waiter gets its response), and returns when the pool is
// idle. Safe to call once; new submissions during the drain get 503.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	// Safe: every queue send is a non-blocking select made while holding
	// mu AND after checking draining, so no send can race this close.
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		s.log.Error("encoding response failed", "err", err)
	}
}
