package cache

import (
	"testing"

	"fpb/internal/sim"
)

func BenchmarkCacheAccessHit(b *testing.B) {
	c := New(32*1024, 64, 4)
	c.Access(0x1000, false)
	for i := 0; i < b.N; i++ {
		if hit, _, _ := c.Access(0x1000, false); !hit {
			b.Fatal("miss")
		}
	}
}

func BenchmarkCacheAccessStreamingMiss(b *testing.B) {
	c := New(32*1024, 64, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*64, i%2 == 0)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.L3SizeMB = 4
	h := NewHierarchy(&cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i)*64%(8<<20), i%4 == 0)
	}
}

// BenchmarkCacheFillDistinct measures the closed-form cold fill at the
// Table 1 L3 geometry (32 MB, 256 B lines, 8 ways): twice the capacity of
// distinct lines in a shuffled order, the shape of one core's prefill.
func BenchmarkCacheFillDistinct(b *testing.B) {
	const size, lineB, ways = 32 << 20, 256, 8
	order := make([]int, 2*size/lineB)
	sim.NewRNG(1).Perm(order)
	line := func(k int) (uint64, bool) { return uint64(k) * lineB, k%3 == 0 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := New(size, lineB, ways)
		c.FillDistinct(order, line)
		c.Release()
	}
}

// BenchmarkHierarchyCloneRelease measures what a prefill snapshot hit costs
// a simulation's setup and teardown at the Table 1 geometry: clone a
// prefilled hierarchy, touch 64 sets through it, release it.
func BenchmarkHierarchyCloneRelease(b *testing.B) {
	cfg := sim.DefaultConfig()
	h := NewHierarchy(&cfg)
	capLines := h.L3CapacityLines()
	order := make([]int, 2*capLines)
	sim.NewRNG(1).Perm(order)
	lineB := uint64(cfg.L3LineB)
	h.L3().FillDistinct(order, func(k int) (uint64, bool) { return uint64(k) * lineB, k%3 == 0 })
	for addr := uint64(0); addr < 1<<20; addr += 64 { // a hot region through L1/L2
		h.Access(addr, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := h.Clone(&cfg)
		for s := uint64(0); s < 64; s++ {
			c.Access(s*lineB, s%4 == 0)
		}
		c.Release()
	}
}
