package system

import (
	"bytes"
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

// BenchmarkPrefillCold measures one core's prefill into a fresh hierarchy
// (the direct L3 construction, then the hot-region warm-up): the cost a
// prefill snapshot-cache miss pays.
func BenchmarkPrefillCold(b *testing.B) {
	cfg, gen, prof := prefillCore(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prefill(cache.NewHierarchy(cfg), gen, prof)
	}
}

// BenchmarkPrefillSnapshotHit measures the snapshot-cache hit path: one
// clone of an already prefilled hierarchy, released again as a finished
// simulation releases it.
func BenchmarkPrefillSnapshotHit(b *testing.B) {
	cfg, gen, prof := prefillCore(b)
	prefilledHierarchy(cfg, gen, prof) // populate the snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, _ := prefilledHierarchy(cfg, gen, prof)
		h.Release()
	}
}

// dropPrefillSnapshots empties the prefill snapshot cache, so the next
// build pays every core's cold prefill.
func dropPrefillSnapshots() {
	prefillSnapshots.Lock()
	prefillSnapshots.m = nil
	prefillSnapshots.Unlock()
}

// BenchmarkEncodeCheckpoint measures serializing a machine at its warmup
// barrier (mcf_m, Table 1 geometry, warmTestCfg's warmup): every core's
// cache delta against its prefill baseline plus PCM, controller and power
// state.
func BenchmarkEncodeCheckpoint(b *testing.B) {
	cfg := warmTestCfg(sim.SchemeDIMMChip)
	_, img := captureImage(b, cfg, "mcf_m")
	sys, err := RestoreSystem(cfg, "mcf_m", img)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !bytes.Equal(sys.EncodeCheckpoint(), img) {
			b.Fatal("re-encoding the restored machine changed the image")
		}
	}
	b.ReportMetric(float64(len(img)), "image-B")
}

// BenchmarkRestoreSystem measures rebuilding a machine from a barrier image.
// Restore regenerates every core's prefill baseline: "cold" empties the
// prefill snapshot cache before each restore, so it pays eight cold
// prefills; "snapshot-hit" clones them from the cache.
func BenchmarkRestoreSystem(b *testing.B) {
	cfg := warmTestCfg(sim.SchemeDIMMChip)
	_, img := captureImage(b, cfg, "mcf_m")
	for _, cold := range []bool{true, false} {
		name := "snapshot-hit"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					dropPrefillSnapshots()
					b.StartTimer()
				}
				sys, err := RestoreSystem(cfg, "mcf_m", img)
				if err != nil {
					b.Fatal(err)
				}
				sys.Release()
			}
		})
	}
}
