// Command fpbsim runs one simulation and prints its metrics — the
// single-configuration counterpart to fpbexp.
//
// Usage:
//
//	fpbsim -workload mcf_m -scheme fpb -instr 200000
//	fpbsim -workload lbm_m -scheme dimm+chip -mapping vim -gcpeff 0.5
//	fpbsim -workload mcf_m -scheme fpb -trace out.trace -metrics out.json -probe-interval 10000
//	fpbsim -workload mcf_m -scheme fpb -remote localhost:8080
//	fpbsim -workload mcf_m -scheme fpb -warmup 2000000 -checkpoint-dir /tmp/fpb-ckpt
//
// With -warmup N the run simulates N cycles under the warmup scheme before
// measurement begins (a declared part of the configuration — results include
// it). Adding -checkpoint-dir stores the quiesced post-warmup state so later
// runs sharing the same warmup prefix restore it instead of re-simulating;
// either way the results are byte-identical.
//
// With -remote the run is offloaded to shared fpbd daemons (see cmd/fpbd
// and README "Serving"): the job goes to its key's ring owner, and
// identical requests are answered from its persistent result cache without
// re-simulating. Trace/probe flags require a local run.
//
// Schemes: ideal, dimm-only, dimm+chip, gcp, gcp+ipm, fpb (= gcp+ipm+mr),
// ipm, ipm+mr. Mappings: ne, vim, bim.
//
// Observability (see README "Observability"):
//
//	-trace FILE           Chrome trace_event JSON (open in chrome://tracing)
//	-trace-jsonl FILE     raw JSONL event stream (byte-deterministic per seed)
//	-trace-cats LIST      event categories (mem,power,core,engine); default all but engine
//	-trace-sample N       keep only every Nth trace event
//	-metrics FILE         end-of-run metrics registry dump (JSON)
//	-probe-interval N     sample every gauge each N cycles into -probe-csv
//	-probe-csv FILE       probe CSV path (default probes.csv)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fpb/internal/ckpt"
	"fpb/internal/obs"
	"fpb/internal/serve"
	"fpb/internal/serve/client"
	"fpb/internal/sim"
	"fpb/internal/system"
	"fpb/internal/trace"
	"fpb/internal/workload"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fpbsim: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		wl       = flag.String("workload", "mcf_m", "workload name (ast_m..cop_m, mix_1..mix_3)")
		scheme   = flag.String("scheme", "fpb", "power budgeting scheme")
		mapName  = flag.String("mapping", "bim", "cell mapping: ne, vim, bim")
		gcpEff   = flag.Float64("gcpeff", 0.70, "GCP power efficiency (0,1]")
		instr    = flag.Uint64("instr", 200_000, "instructions per core")
		tokens   = flag.Float64("tokens", 560, "DIMM power tokens")
		lineB    = flag.Int("line", 256, "memory line size in bytes")
		wrq      = flag.Int("wrq", 24, "write queue entries")
		llc      = flag.Int("llc", 32, "per-core LLC capacity in MB")
		wc       = flag.Bool("wc", false, "enable write cancellation")
		wp       = flag.Bool("wp", false, "enable write pausing")
		wt       = flag.Bool("wt", false, "enable write truncation")
		seed     = flag.Uint64("seed", 0, "override RNG seed (0 = default)")
		traceDir = flag.String("tracedir", "", "replay per-core trace files <dir>/<workload>.coreN.trace instead of generating")
		remote   = flag.String("remote", "", "offload the run to the fpbd daemons at these comma-separated addresses (host:port), routed by ring owner with replica failover")

		warmup       = flag.Uint64("warmup", 0, "run N warmup cycles before measurement (0 = off; part of the declared config)")
		warmupScheme = flag.String("warmup-scheme", "", "scheme the warmup phase runs under (default: the config default; requires -warmup)")
		ckptDir      = flag.String("checkpoint-dir", "", "checkpoint the warmup prefix here and warm-start repeat runs (requires -warmup)")

		traceOut      = flag.String("trace", "", "write Chrome trace_event JSON to this file")
		traceJSONL    = flag.String("trace-jsonl", "", "write the raw JSONL event stream to this file")
		traceCats     = flag.String("trace-cats", "", "comma-separated trace categories (mem,power,core,engine); default: all but engine")
		traceSample   = flag.Uint64("trace-sample", 0, "keep only every Nth trace event (0/1 = all)")
		metricsOut    = flag.String("metrics", "", "write the end-of-run metrics registry to this JSON file")
		probeInterval = flag.Uint64("probe-interval", 0, "sample every gauge each N cycles into -probe-csv (0 = off)")
		probeOut      = flag.String("probe-csv", "probes.csv", "time-series probe CSV path (with -probe-interval)")
	)
	flag.Parse()

	s, err := sim.ParseScheme(*scheme)
	if err != nil {
		fail("%v", err)
	}
	m, err := sim.ParseMapping(*mapName)
	if err != nil {
		fail("%v", err)
	}

	cfg := sim.DefaultConfig()
	cfg.Scheme = s
	cfg.CellMapping = m
	cfg.GCPEff = *gcpEff
	cfg.InstrPerCore = *instr
	cfg.DIMMTokens = *tokens
	cfg.L3LineB = *lineB
	cfg.WriteQueueEntries = *wrq
	cfg.L3SizeMB = *llc
	cfg.WriteCancellation = *wc
	cfg.WritePausing = *wp
	cfg.WriteTruncation = *wt
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *warmupScheme != "" && *warmup == 0 {
		fail("-warmup-scheme is only meaningful with -warmup N (N > 0 warmup cycles)")
	}
	if *ckptDir != "" && *warmup == 0 {
		fail("-checkpoint-dir is only meaningful with -warmup N (N > 0 warmup cycles): checkpoints capture the warmup prefix")
	}
	cfg.WarmupCycles = *warmup
	if *warmupScheme != "" {
		ws, err := sim.ParseScheme(*warmupScheme)
		if err != nil {
			fail("-warmup-scheme: %v", err)
		}
		cfg.WarmupScheme = ws
	}
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}
	if *ckptDir != "" {
		if *traceDir != "" {
			fail("-checkpoint-dir cannot combine with -tracedir: trace-replay state is not checkpointable")
		}
		if *remote != "" {
			fail("-checkpoint-dir is a local store; for remote runs configure the daemon's store with fpbd -ckpt-store")
		}
		if *traceOut != "" || *traceJSONL != "" || *probeInterval > 0 {
			fail("-trace/-trace-jsonl/-probe-interval cannot combine with -checkpoint-dir (the warm-start path has no trace attach point)")
		}
	}

	if *remote != "" {
		if *traceDir != "" || *traceOut != "" || *traceJSONL != "" || *probeInterval > 0 {
			fail("-tracedir/-trace/-trace-jsonl/-probe-interval run locally and cannot combine with -remote")
		}
		fleet, err := client.NewFleet(strings.Split(*remote, ","), client.FleetConfig{})
		if err != nil {
			fail("remote run: %v", err)
		}
		defer fleet.Close()
		st, err := fleet.Do(context.Background(), serve.JobSpec{Workload: *wl, Config: &cfg})
		if err != nil {
			fail("remote run: %v", err)
		}
		if st.State != serve.StateDone || st.Result == nil {
			fail("remote run: job %s %s: %s", st.ID, st.State, st.Error)
		}
		res := *st.Result
		if *metricsOut != "" {
			if err := writeMetricsFile(*metricsOut, res.Metrics); err != nil {
				fail("writing metrics: %v", err)
			}
		}
		fmt.Printf("remote              %s (job %s, cached %v)\n", *remote, st.ID, st.Cached)
		printResult(res, cfg, m, *gcpEff, *wc, *wp)
		return
	}

	if *ckptDir != "" {
		store, err := ckpt.NewStore(*ckptDir)
		if err != nil {
			fail("opening checkpoint store: %v", err)
		}
		res, warmed, err := system.RunWorkloadCheckpointed(cfg, *wl, store)
		if err != nil {
			fail("%v", err)
		}
		res.Workload = *wl
		if *metricsOut != "" {
			if err := writeMetricsFile(*metricsOut, res.Metrics); err != nil {
				fail("writing metrics: %v", err)
			}
		}
		if warmed {
			fmt.Printf("warm start          restored %d warmup cycles from %s\n", *warmup, *ckptDir)
		} else {
			fmt.Printf("warm start          simulated warmup cold, checkpointed to %s\n", *ckptDir)
		}
		printResult(res, cfg, m, *gcpEff, *wc, *wp)
		return
	}

	sys, err := buildSystem(cfg, *traceDir, *wl)
	if err != nil {
		fail("%v", err)
	}

	// Observability attachments; everything stays off without its flag.
	var sinks []obs.Sink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail("%v", err)
		}
		sinks = append(sinks, obs.NewChrome(f, cfg.CPUFreqGHz*1000))
	}
	if *traceJSONL != "" {
		f, err := os.Create(*traceJSONL)
		if err != nil {
			fail("%v", err)
		}
		sinks = append(sinks, obs.NewJSONL(f))
	}
	var tracer *obs.Tracer
	if len(sinks) > 0 {
		tracer = obs.NewTracer(sinks...)
		if *traceCats != "" {
			tracer.FilterCats(strings.Split(*traceCats, ",")...)
		}
		tracer.Sample(*traceSample)
		sys.EnableTrace(tracer)
	}
	var prober *obs.Prober
	if *probeInterval > 0 {
		f, err := os.Create(*probeOut)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		prober = sys.EnableProbes(sim.Cycle(*probeInterval), f)
	}

	res := sys.Run()
	if *traceDir != "" {
		res.Workload = *wl + " (replay)"
	} else {
		res.Workload = *wl
	}

	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fail("closing trace: %v", err)
		}
	}
	if prober != nil && prober.Err() != nil {
		fail("writing probes: %v", prober.Err())
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fail("%v", err)
		}
		werr := sys.Obs.Registry().WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fail("writing metrics: %v", werr)
		}
	}

	printResult(res, cfg, m, *gcpEff, *wc, *wp)
}

// printResult renders one run's metrics; shared by the local and -remote
// paths so offloaded runs read identically.
func printResult(res system.Result, cfg sim.Config, m sim.Mapping, gcpEff float64, wc, wp bool) {
	fmt.Printf("workload            %s\n", res.Workload)
	fmt.Printf("scheme              %s (%v, GCP eff %.2f)\n", res.Scheme, m, gcpEff)
	fmt.Printf("instructions        %d\n", res.Instrs)
	fmt.Printf("cycles              %d\n", res.Cycles)
	fmt.Printf("CPI                 %.3f\n", res.CPI)
	fmt.Printf("PCM reads           %d (RPKI %.3f)\n", res.DemandReads, res.MeasRPKI)
	fmt.Printf("PCM writes          %d (WPKI %.3f)\n", res.Writes, res.MeasWPKI)
	fmt.Printf("avg cell changes    %.1f per line write\n", res.AvgCellChanges)
	fmt.Printf("avg read latency    %.0f cycles\n", res.AvgReadLatency)
	fmt.Printf("write latency       p50 %.0f / p95 %.0f / p99 %.0f cycles\n",
		res.WriteLatP50, res.WriteLatP95, res.WriteLatP99)
	fmt.Printf("write throughput    %.1f line writes / Mcycle\n", res.WriteThroughput)
	fmt.Printf("write-burst time    %.1f%%\n", res.BurstFraction*100)
	fmt.Printf("GCP max/avg tokens  %.1f / %.2f\n", res.MaxGCPTokens, res.AvgGCPTokens)
	fmt.Printf("multi-RESET admits  %d\n", res.MRAdmissions)
	fmt.Printf("multi-round writes  %d\n", res.MultiRound)
	fmt.Printf("avg write energy    %.1f pJ (%.2f nJ per 64B)\n",
		res.AvgWriteEnergyPJ, res.AvgWriteEnergyPJ/float64(cfg.L3LineB/64)/1000)
	fmt.Printf("wear                %d distinct lines, hottest written %d times\n",
		res.DistinctLines, res.MaxLineWrites)
	if wc || wp {
		fmt.Printf("WC cancels / WP pauses  %d / %d\n", res.WCCancels, res.WPPauses)
	}
}

// writeMetricsFile dumps a remote result's metrics snapshot in the same
// deterministic encoding the local path uses.
func writeMetricsFile(path string, metrics map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.EncodeSeries(f, metrics)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// buildSystem assembles the machine, either from a live workload generator
// or from stored per-core trace files.
func buildSystem(cfg sim.Config, traceDir, wl string) (*system.System, error) {
	if traceDir == "" {
		w, err := workload.ByName(wl, cfg.Cores)
		if err != nil {
			return nil, err
		}
		return system.Build(cfg, w)
	}
	sources := make([]trace.Source, cfg.Cores)
	classes := make([]workload.ValueClass, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		path := filepath.Join(traceDir, fmt.Sprintf("%s.core%d.trace", wl, i))
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		sources[i] = r
		classes[i], _ = workload.ParseValueClass(r.Header().Value)
	}
	return system.BuildFromSources(cfg, sources, classes)
}
