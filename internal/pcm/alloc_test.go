package pcm

import (
	"runtime"
	"testing"

	"fpb/internal/testutil"
)

// TestStoreUpdateSteadyStateZeroAlloc guards the store's write path:
// rewriting a written line must not touch the allocator.
func TestStoreUpdateSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := NewStore(64)
	line := make([]byte, 64)
	s.Update(0x1000, line) // first write allocates the line's slab
	allocs := testing.AllocsPerRun(1000, func() {
		line[0]++
		s.Update(0x1000, line)
	})
	if allocs != 0 {
		t.Fatalf("Update allocated %.1f objects/op, want 0", allocs)
	}
}

// TestStoreScatteredLinesMemory: the store's memory is O(lines written).
// 256 first writes spaced PageLines apart, the scattered writeback shape
// of a short run over a large footprint, may allocate at most twice their
// content plus a small fixed overhead for the index.
func TestStoreScatteredLinesMemory(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation sizes are inflated under -race")
	}
	const lineB, n = 256, 256
	const overhead = 32 << 10
	line := make([]byte, lineB)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewStore(lineB)
	for k := uint64(0); k < n; k++ {
		s.Update(k*PageLines*lineB, line)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*n*lineB+overhead); got > limit {
		t.Fatalf("%d scattered lines allocated %d B, want at most %d B", n, got, limit)
	}
}
