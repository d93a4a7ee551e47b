// Command fpbd is the FPB simulation daemon: it serves simulation jobs over
// an HTTP JSON API (internal/serve), running them on a bounded worker pool
// behind a FIFO queue and memoizing every result in a content-addressed disk
// store, so repeated and concurrent identical requests — e.g. a figure
// regeneration fleet of `fpbexp -remote` runs — simulate each distinct
// (config, workload) pair exactly once, ever.
//
// Usage:
//
//	fpbd -addr :8080 -store fpbd-store -workers 8 -queue 64
//
// API (see README "Serving" for a curl session):
//
//	GET  /healthz           liveness + queue snapshot
//	GET  /metrics           serving metrics; legacy JSON by default,
//	                        Prometheus text with ?format=prometheus
//	POST /v1/jobs           run a job; blocks until the result is ready
//	POST /v1/jobs?async=1   202 + job id immediately; poll GET /v1/jobs/{id}
//	GET  /v1/checkpoints/{key}  raw warmup checkpoint image (with -ckpt-store)
//	PUT  /v1/checkpoints/{key}  seed a checkpoint image (with -ckpt-store)
//	GET  /debug/pprof/      runtime profiles (only with -pprof)
//
// Logs are structured (log/slog): -log-format picks text or json, -log-level
// the threshold. Every line about a job carries its correlation ID under the
// "job" key, so `grep j000042` follows one job accept → queue → worker →
// store. cmd/fpbtop renders a live view of the /metrics exposition.
//
// Fleet mode: with -peers (or -join), the daemon becomes one member of a
// consistent-hash cluster — it accepts sweeps (POST /v1/sweeps, driven by
// cmd/fpbctl), executes the units it owns, fans the rest to their ring
// owners, and replicates completed results to its key ranges' successors.
// Every node must advertise the address its peers dial it at (-advertise)
// and agree on -replicas/-vnodes; -join asks an existing member for the
// fleet's member list and settings instead of spelling out -peers by hand.
//
// SIGINT/SIGTERM drain gracefully: new jobs get 503, running sweeps are
// cancelled, queued and in-flight jobs finish (their waiting clients get
// responses), then the process exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fpb/internal/cluster"
	"fpb/internal/serve"
	"fpb/internal/serve/client"
)

func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	}
	return nil, errors.New("log format must be text or json")
}

// joinFleet asks an existing member for the fleet's membership and settings.
func joinFleet(target string) (cluster.MembersStatus, error) {
	base := client.Normalize(target)
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(base + "/v1/cluster/members")
	if err != nil {
		return cluster.MembersStatus{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return cluster.MembersStatus{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return cluster.MembersStatus{}, fmt.Errorf("%s: %s", base, resp.Status)
	}
	var ms cluster.MembersStatus
	if err := json.Unmarshal(body, &ms); err != nil {
		return cluster.MembersStatus{}, err
	}
	return ms, nil
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		store     = flag.String("store", "fpbd-store", "persistent result store directory (empty = no persistence)")
		ckptStore = flag.String("ckpt-store", "", "warmup checkpoint store directory (empty = no warm-starting); jobs declaring warmup_cycles then share each warmup prefix's simulation")
		workers   = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "job queue depth; a full queue answers 429")
		drain     = flag.Duration("drain-timeout", 2*time.Minute, "max time to drain in-flight jobs at shutdown")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		pprofFlag = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")

		advertise = flag.String("advertise", "", "address peers dial this node at (required with -peers/-join)")
		peers     = flag.String("peers", "", "comma-separated peer addresses forming the fleet ring")
		join      = flag.String("join", "", "fetch the peer list and fleet settings from this existing member")
		replicas  = flag.Int("replicas", 0, "result replication factor R across ring owners (default 2)")
		vnodes    = flag.Int("vnodes", 0, "virtual nodes per ring member (default 64; all nodes must agree)")
		inflight  = flag.Int("sweep-inflight", 0, "max sweep units in flight per target node (default 4)")
		probe     = flag.Duration("probe-interval", 5*time.Second, "health-probe interval for down members (0 disables)")
	)
	flag.Parse()

	log, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		// The logger itself failed to construct; stderr is all we have.
		slog.New(slog.NewTextHandler(os.Stderr, nil)).Error("bad logging flags", "err", err)
		os.Exit(2)
	}

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	if *join != "" {
		ms, err := joinFleet(*join)
		if err != nil {
			log.Error("join failed", "target", *join, "err", err)
			os.Exit(1)
		}
		peerList = append(peerList, *join)
		peerList = append(peerList, ms.Members...)
		if *replicas == 0 {
			*replicas = ms.Replicas
		}
		if *vnodes == 0 {
			*vnodes = ms.VNodes
		}
		log.Info("joined fleet", "via", *join, "members", len(ms.Members),
			"replicas", *replicas, "vnodes", *vnodes)
	}
	if len(peerList) > 0 && *advertise == "" {
		log.Error("fleet mode requires -advertise (the address peers dial this node at)")
		os.Exit(2)
	}

	node, err := cluster.NewNode(cluster.NodeConfig{
		Serve: serve.Config{
			Workers:       *workers,
			QueueDepth:    *queue,
			StoreDir:      *store,
			CheckpointDir: *ckptStore,
			Logger:        log,
			EnablePprof:   *pprofFlag,
		},
		FleetConfig:     client.FleetConfig{VNodes: *vnodes, ProbeInterval: *probe},
		Self:            *advertise,
		Peers:           peerList,
		Replicas:        *replicas,
		PerNodeInflight: *inflight,
	})
	if err != nil {
		log.Error("startup failed", "err", err)
		os.Exit(1)
	}
	srv := node.Server()

	httpSrv := &http.Server{Addr: *addr, Handler: node}
	errc := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", *addr, "store", *store, "pprof", *pprofFlag,
			"fleet", len(peerList) > 0, "advertise", *advertise, "peers", len(peerList))
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	log.Info("draining")
	drained := make(chan struct{})
	go func() {
		node.Drain() // cancel sweeps, reject new jobs, finish queued + in-flight ones
		close(drained)
	}()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	select {
	case <-drained:
	case <-shutdownCtx.Done():
		log.Warn("drain timeout; abandoning queued jobs")
	}
	// Now release connections whose handlers have responded.
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Error("shutdown failed", "err", err)
	}

	// Exit-time metrics summary: the lifetime counters, through the same
	// structured channel as everything else.
	reg := srv.Registry()
	done, _ := reg.Value("serve.jobs.done")
	failed, _ := reg.Value("serve.jobs.failed")
	hits, _ := reg.Value("serve.cache.hits")
	coalesced, _ := reg.Value("serve.jobs.coalesced")
	rejected, _ := reg.Value("serve.jobs.rejected")
	warms, _ := reg.Value("serve.jobs.warm_starts")
	log.Info("exit",
		"jobs_done", int(done), "jobs_failed", int(failed),
		"cache_hits", int(hits), "coalesced", int(coalesced),
		"rejected", int(rejected), "warm_starts", int(warms))
}
