package workload

import (
	"testing"

	"fpb/internal/sim"
)

// BenchmarkGeneratorNext measures one access of mcf_m's core stream: the
// per-access cost every simulated core pays to draw its next load or store.
func BenchmarkGeneratorNext(b *testing.B) {
	cfg := sim.DefaultConfig()
	g := NewGenerator(profMcf, &cfg, 0, sim.NewRNG(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
