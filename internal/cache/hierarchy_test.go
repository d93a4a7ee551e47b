package cache

import (
	"testing"

	"fpb/internal/sim"
)

// smallConfig shrinks the hierarchy so eviction behaviour is testable.
func smallConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.L1SizeKB = 1 // 16 lines
	cfg.L2SizeKB = 4 // 64 lines
	cfg.L3SizeMB = 1 // 4096 lines of 256B
	return cfg
}

func TestHierarchyLevels(t *testing.T) {
	cfg := smallConfig()
	h := NewHierarchy(&cfg)
	out := h.Access(0x1000, false)
	if out.Level != LevelMemory {
		t.Fatalf("cold access level = %v, want memory", out.Level)
	}
	if out.FillAddr != 0x1000 {
		t.Errorf("FillAddr = %#x", out.FillAddr)
	}
	if out := h.Access(0x1000, false); out.Level != LevelL1 {
		t.Errorf("re-access level = %v, want L1", out.Level)
	}
	// An address in the same 256B L3 line but a different 64B L1 line
	// hits L3 (the fill only installed 64B in L1/L2).
	if out := h.Access(0x1040, false); out.Level != LevelL3 {
		t.Errorf("sibling-64B access level = %v, want L3", out.Level)
	}
}

func TestHierarchyFillAddrAligned(t *testing.T) {
	cfg := smallConfig()
	h := NewHierarchy(&cfg)
	out := h.Access(0x12345, false)
	if out.FillAddr%uint64(cfg.L3LineB) != 0 {
		t.Errorf("FillAddr %#x not L3-line aligned", out.FillAddr)
	}
}

func TestHierarchyDirtyWritebackReachesMemory(t *testing.T) {
	cfg := smallConfig()
	h := NewHierarchy(&cfg)
	// Dirty one L3 line, then stream reads over > L3 capacity so it is
	// eventually evicted to memory.
	h.Access(0x0, true)
	sawWriteback := false
	span := uint64(cfg.L3SizeMB) * 1024 * 1024 * 2
	for addr := uint64(1 << 20); addr < 1<<20+span; addr += uint64(cfg.L3LineB) {
		out := h.Access(addr, false)
		for _, wb := range out.Writebacks {
			if wb == 0x0 {
				sawWriteback = true
			}
			if wb%uint64(cfg.L3LineB) != 0 {
				t.Fatalf("writeback %#x not line aligned", wb)
			}
		}
	}
	if !sawWriteback {
		t.Error("dirty line never written back to memory")
	}
}

func TestHierarchyCleanEvictionsSilent(t *testing.T) {
	cfg := smallConfig()
	h := NewHierarchy(&cfg)
	span := uint64(cfg.L3SizeMB) * 1024 * 1024 * 3
	for addr := uint64(0); addr < span; addr += uint64(cfg.L3LineB) {
		out := h.Access(addr, false)
		if len(out.Writebacks) != 0 {
			t.Fatal("clean streaming produced writebacks")
		}
	}
}

func TestHierarchyStoreStreamProducesReadsAndWrites(t *testing.T) {
	// The workload calibration identity: streaming stores at L3-line
	// granularity produce one demand fill and (eventually) one writeback
	// per line.
	cfg := smallConfig()
	h := NewHierarchy(&cfg)
	lineB := uint64(cfg.L3LineB)
	capLines := uint64(cfg.L3SizeMB) * 1024 * 1024 / lineB
	fills, wbs := 0, 0
	for i := uint64(0); i < capLines*4; i++ {
		out := h.Access(i*lineB, true)
		if out.Level == LevelMemory {
			fills++
		}
		wbs += len(out.Writebacks)
	}
	if fills != int(capLines*4) {
		t.Errorf("fills = %d, want %d (every streaming store misses)", fills, capLines*4)
	}
	// All but the resident tail must have been written back.
	wantWB := int(capLines * 3)
	if wbs < wantWB-64 || wbs > int(capLines*4) {
		t.Errorf("writebacks = %d, want ≈ %d", wbs, wantWB)
	}
}

func TestHierarchyWritebackAllocateFillRead(t *testing.T) {
	// A dirty 64B line whose enclosing 256B L3 line has been evicted
	// must, when written back down the stack, allocate in L3 and record
	// a read-for-ownership fill. Construct it deterministically:
	// line 0x0 sits in L1 set 0, L2 set 0, L3 set 0 (L1: 4 sets, L2: 16
	// sets, L3: 512 sets under smallConfig).
	cfg := smallConfig()
	h := NewHierarchy(&cfg)
	h.Access(0x0, true) // dirty in L1; clean copies in L2/L3

	var fills int
	count := func(out Outcome) { fills += len(out.FillReads) }

	// Evict 0x0 from L3: 9 reads mapping to L3 set 0 but L1/L2 set 1
	// (offset +64 within 128KB-stride lines).
	for k := uint64(1); k <= 9; k++ {
		count(h.Access(k*131072+64, false))
	}
	if h.L3().Contains(0x0) {
		t.Fatal("setup: 0x0 still in L3")
	}
	if !h.L1().IsDirty(0x0) {
		t.Fatal("setup: 0x0 not dirty in L1")
	}
	// Evict 0x0 from L1 (set 0) with reads at 256B stride, L3 sets 1..4.
	for j := uint64(1); j <= 4; j++ {
		count(h.Access(j*256, false))
	}
	// 0x0's dirty data is now in L2 set 0; evict it with reads at 1KB
	// stride (L2 set 0, L3 sets 4,8,12,16).
	before := fills
	for m := uint64(1); m <= 5; m++ {
		count(h.Access(m*1024, false))
	}
	if fills <= before {
		t.Errorf("no read-for-ownership fill recorded (fills %d)", fills)
	}
}

func TestHitLatencyMonotone(t *testing.T) {
	cfg := sim.DefaultConfig()
	h := NewHierarchy(&cfg)
	l1 := h.HitLatency(LevelL1)
	l2 := h.HitLatency(LevelL2)
	l3 := h.HitLatency(LevelL3)
	mem := h.HitLatency(LevelMemory)
	if !(l1 < l2 && l2 < l3 && l3 <= mem) {
		t.Errorf("latencies not monotone: %d %d %d %d", l1, l2, l3, mem)
	}
	if l1 != 2 {
		t.Errorf("L1 latency = %d, want 2", l1)
	}
	if l3 != 2+16+7+64+200 {
		t.Errorf("L3 latency = %d, want 289", l3)
	}
}
