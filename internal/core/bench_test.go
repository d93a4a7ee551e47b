package core

import "testing"

// BenchmarkSchedulerTryStart is the admission layer's microbenchmark: a
// queued FPB write retried against a contended power manager, as the
// controller does on every scheduling pass while the write waits. The
// first attempt memoizes the unsplit and every Multi-RESET plan; each
// timed attempt is one denied retry.
func BenchmarkSchedulerTryStart(b *testing.B) {
	s, prof := contendedScheduler()
	var ps PlanSet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := s.TryStart(prof, &ps); ok {
			b.Fatal("admitted against a fully held DIMM budget")
		}
	}
}
