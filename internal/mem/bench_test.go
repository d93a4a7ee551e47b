package mem

import (
	"testing"

	"fpb/internal/power"
	"fpb/internal/sim"
)

// BenchmarkControllerSchedule is the controller layer's microbenchmark: a
// full write queue of 24 distinct FPB writes spread over every bank, with
// every DIMM token held, so each timed schedule() pass is the denied scan
// the controller repeats while writes wait for power. Every profile and
// plan is memoized by the first pass; a timed pass allocates nothing.
func BenchmarkControllerSchedule(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeGCPIPMMR
	cfg.WriteQueueEntries = 24
	c := NewController(sim.NewEngine(), &cfg, nil)
	if _, ok := c.sched.Manager().TryAcquire(power.Demand{DIMM: cfg.DIMMTokens}); !ok {
		b.Fatal("DIMM budget not free")
	}
	for i := 0; i < cfg.WriteQueueEntries; i++ {
		if !c.TryEnqueueWrite(uint64(i*cfg.L3LineB), mkLine(&cfg, 16+4*i)) {
			b.Fatalf("write %d refused", i)
		}
	}
	if _, _, wrq := c.QueueDepths(); wrq != cfg.WriteQueueEntries {
		b.Fatalf("write queue holds %d, want %d denied writes", wrq, cfg.WriteQueueEntries)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.schedule()
	}
	b.StopTimer()
	if _, _, wrq := c.QueueDepths(); wrq != cfg.WriteQueueEntries {
		b.Fatalf("a write was admitted with every DIMM token held (queue %d)", wrq)
	}
}
