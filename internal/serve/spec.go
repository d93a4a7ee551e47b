// Package serve is the simulation-as-a-service layer: an HTTP JSON API
// (mounted by cmd/fpbd) that accepts simulation jobs, runs them on a bounded
// worker pool behind a FIFO queue with explicit backpressure, coalesces
// concurrent identical requests into one simulation, and persists results in
// a content-addressed disk store so restarts serve warm answers without
// re-simulating. Stdlib-only, like the rest of the tree.
//
// Endpoints:
//
//	GET  /healthz           liveness + queue/worker snapshot
//	GET  /metrics           the server's obs metrics registry; legacy JSON
//	                        by default, Prometheus text exposition with
//	                        ?format=prometheus or an Accept header of
//	                        text/plain / application/openmetrics-text
//	POST /v1/jobs           run a job (blocks until done); ?async=1 returns
//	                        202 immediately with an id to poll
//	GET  /v1/jobs/{id}      status/result of a previously submitted job
//	GET  /v1/results/{key}  stored result by content key, from the local
//	                        store only (404 on a miss; no simulation)
//	GET  /v1/checkpoints/{key}  raw warmup checkpoint image from the local store
//	PUT  /v1/checkpoints/{key}  store a checkpoint image (validated on upload)
//	GET  /debug/pprof/...   runtime profiles, only when Config.EnablePprof
//
// Jobs are identified by system.Key — the SHA-256 of the canonical
// (config, workload) serialization — so two requests that spell the same
// simulation differently still share one queue slot, one worker, and one
// store entry. Each accepted job additionally gets a correlation ID
// (JobStatus.ID) that appears on every structured log line and in the
// job's Lifecycle record, so one grep follows a job accept → queue →
// worker → store.
package serve

import (
	"fmt"

	"fpb/internal/sim"
	"fpb/internal/system"
)

// JobSpec is the request body of POST /v1/jobs. Either a full sim.Config is
// supplied in Config, or the server starts from sim.DefaultConfig; the
// scalar convenience fields then override whichever base was chosen (so a
// curl one-liner needs nothing but a workload and a scheme name).
type JobSpec struct {
	// Workload names the workload to simulate (required).
	Workload string `json:"workload"`
	// Config optionally carries the full simulator configuration.
	Config *sim.Config `json:"config,omitempty"`
	// Scheme/Mapping name overrides, as accepted by sim.ParseScheme and
	// sim.ParseMapping ("fpb", "dimm+chip", "bim", ...).
	Scheme  string `json:"scheme,omitempty"`
	Mapping string `json:"mapping,omitempty"`
	// Seed overrides the RNG seed when non-zero.
	Seed uint64 `json:"seed,omitempty"`
	// InstrPerCore overrides the per-core instruction budget when non-zero.
	InstrPerCore uint64 `json:"instr_per_core,omitempty"`
	// WarmupCycles declares a warmup phase when non-zero
	// (sim.Config.WarmupCycles): the node warm-starts the job from its
	// checkpoint store when the warmup prefix's image is present.
	WarmupCycles uint64 `json:"warmup_cycles,omitempty"`
	// WarmupScheme names the scheme the warmup phase runs under (default:
	// the config's WarmupScheme, i.e. Ideal for a default config).
	WarmupScheme string `json:"warmup_scheme,omitempty"`
}

// Resolve produces the validated (config, workload) pair the spec denotes.
func (s JobSpec) Resolve() (sim.Config, string, error) {
	if s.Workload == "" {
		return sim.Config{}, "", fmt.Errorf("serve: job spec: workload is required")
	}
	cfg := sim.DefaultConfig()
	if s.Config != nil {
		cfg = *s.Config
	}
	if s.Scheme != "" {
		sc, err := sim.ParseScheme(s.Scheme)
		if err != nil {
			return sim.Config{}, "", fmt.Errorf("serve: job spec: %w", err)
		}
		cfg.Scheme = sc
	}
	if s.Mapping != "" {
		m, err := sim.ParseMapping(s.Mapping)
		if err != nil {
			return sim.Config{}, "", fmt.Errorf("serve: job spec: %w", err)
		}
		cfg.CellMapping = m
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.InstrPerCore != 0 {
		cfg.InstrPerCore = s.InstrPerCore
	}
	if s.WarmupCycles != 0 {
		cfg.WarmupCycles = s.WarmupCycles
	}
	if s.WarmupScheme != "" {
		ws, err := sim.ParseScheme(s.WarmupScheme)
		if err != nil {
			return sim.Config{}, "", fmt.Errorf("serve: job spec: warmup scheme: %w", err)
		}
		cfg.WarmupScheme = ws
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, "", fmt.Errorf("serve: job spec: %w", err)
	}
	return cfg, s.Workload, nil
}

// JobState enumerates a job's lifecycle.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: a worker is simulating it.
	StateRunning JobState = "running"
	// StateDone: finished successfully; Result is populated.
	StateDone JobState = "done"
	// StateFailed: the simulation returned an error; Error is populated.
	StateFailed JobState = "failed"
)

// Lifecycle outcomes.
const (
	// OutcomeFresh: the job was admitted to the queue and simulated.
	OutcomeFresh = "fresh"
	// OutcomeCacheHit: the job was answered from the persistent store.
	OutcomeCacheHit = "cache-hit"
)

// Lifecycle is the per-job trace record, keyed by the job's correlation ID.
// Stage timings are wall-clock milliseconds measured by the server; zero
// values mean the stage has not happened (yet) for this job. Lifecycle is
// observability data only — it never feeds the content-addressed key or the
// stored result, so identical specs still dedupe regardless of timing.
type Lifecycle struct {
	// Outcome is OutcomeFresh or OutcomeCacheHit.
	Outcome string `json:"outcome"`
	// Coalesced counts additional requests that attached to this job
	// while it was in flight.
	Coalesced int `json:"coalesced,omitempty"`
	// QueueWaitMs is accept-to-dequeue wait.
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	// SimMs is the simulation runtime.
	SimMs float64 `json:"sim_ms,omitempty"`
	// StoreWriteMs is the persistent store write latency.
	StoreWriteMs float64 `json:"store_write_ms,omitempty"`
}

// JobStatus is the response body of POST /v1/jobs and GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	Key   string   `json:"key"`
	State JobState `json:"state"`
	// Cached reports the result was served from the persistent store (or
	// coalesced onto an identical in-flight job) rather than freshly
	// simulated for this request.
	Cached bool           `json:"cached,omitempty"`
	Result *system.Result `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
	// Lifecycle carries the job's trace record once the server has begun
	// tracking it (outcome known).
	Lifecycle *Lifecycle `json:"lifecycle,omitempty"`
}
