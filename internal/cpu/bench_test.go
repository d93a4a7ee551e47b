package cpu

import (
	"testing"

	"fpb/internal/cache"
	"fpb/internal/mem"
	"fpb/internal/sim"
	"fpb/internal/trace"
	"fpb/internal/workload"
)

// BenchmarkCoreStep is the core layer's microbenchmark: one op is one
// step — fetch an access, look it up in the private hierarchy, and book
// the next step on the engine. The trace cycles loads and stores over
// eight L1-resident lines, so after the first touches no step reaches
// the memory controller.
func BenchmarkCoreStep(b *testing.B) {
	cfg := sim.DefaultConfig()
	const gap = 3
	cfg.InstrPerCore = uint64(b.N) * (gap + 1)
	var accs []trace.Access
	for i := 0; i < 8; i++ {
		accs = append(accs, trace.Access{Gap: gap, Write: i%4 == 0, Addr: uint64(i) * 64})
	}
	eng := sim.NewEngine()
	mc := mem.NewController(eng, &cfg, workload.BaselineContent)
	hier := cache.NewHierarchy(&cfg)
	mut := workload.NewMutator(workload.ValueInt, sim.NewRNG(1))
	c := New(0, eng, &cfg, hier, trace.NewRepeat(accs), mut, mc, nil)
	b.ReportAllocs()
	b.ResetTimer()
	c.Start()
	eng.Run(0)
	b.StopTimer()
	if !c.Finished() {
		b.Fatal("core did not retire its budget")
	}
}
