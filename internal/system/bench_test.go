package system

import (
	"testing"

	"fpb/internal/cache"
	"fpb/internal/sim"
	"fpb/internal/workload"
)

// BenchmarkSimulation measures end-to-end simulator throughput: one full
// build+run of a write-heavy workload under full FPB. The interesting
// number is simulated instructions per wall second (reported as a custom
// metric).
func BenchmarkSimulation(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeGCPIPMMR
	cfg.CellMapping = sim.MapBIM
	cfg.InstrPerCore = 20_000
	cfg.L3SizeMB = 8
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := RunWorkload(cfg, "mcf_m")
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instr/s")
}

// prefillCore returns the config, generator and profile of mcf_m's core 0
// at the default geometry, derived exactly as build derives them.
func prefillCore(b *testing.B) (*sim.Config, *workload.Generator, workload.CoreProfile) {
	cfg := sim.DefaultConfig()
	wl, err := workload.ByName("mcf_m", cfg.Cores)
	if err != nil {
		b.Fatal(err)
	}
	prof := wl.Cores[0]
	coreRNG := sim.NewRNG(cfg.Seed).Derive(1000)
	return &cfg, workload.NewGenerator(prof, &cfg, 0, coreRNG.Derive(1)), prof
}

// BenchmarkPrefillCold measures one core's forward prefill into a fresh
// hierarchy: the cost a prefill snapshot-cache miss pays.
func BenchmarkPrefillCold(b *testing.B) {
	cfg, gen, prof := prefillCore(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prefill(cache.NewHierarchy(cfg), gen, prof)
	}
}

// BenchmarkPrefillSnapshotHit measures the snapshot-cache hit path: one
// clone of an already prefilled hierarchy.
func BenchmarkPrefillSnapshotHit(b *testing.B) {
	cfg, gen, prof := prefillCore(b)
	prefilledHierarchy(cfg, gen, prof) // populate the snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefilledHierarchy(cfg, gen, prof)
	}
}
