package core

import (
	"testing"

	"fpb/internal/mapping"
	"fpb/internal/pcm"
	"fpb/internal/power"
	"fpb/internal/sim"
	"fpb/internal/testutil"
)

// TestPlanSteadyStateZeroAlloc guards the plan/chunk pools: once primed,
// Plan + Release must not touch the allocator — this is the per-write-
// attempt hot path of the FPB scheduler.
func TestPlanSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeGCPIPM // chip budgets enforced: per-chip vectors in play
	rng := sim.NewRNG(7)
	b := pcm.NewBuilder(&cfg, rng)
	cells := make([]int, 128)
	for i := range cells {
		cells[i] = i * 3 % cfg.CellsPerLine()
	}
	prof := b.BuildFromCells(0x40, cells, nil, mapping.New(cfg.CellMapping, cfg.CellsPerLine(), cfg.Chips), false)

	pl := NewPlanner(&cfg)
	// Prime the pools (both the unsplit and the MR shapes).
	pl.Release(pl.Plan(prof))
	pl.Release(pl.PlanMR(prof, 2))
	allocs := testing.AllocsPerRun(1000, func() {
		plan := pl.Plan(prof)
		pl.Release(plan)
	})
	if allocs != 0 {
		t.Fatalf("Plan+Release allocated %.1f objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		plan := pl.PlanMR(prof, 2)
		pl.Release(plan)
	})
	if allocs != 0 {
		t.Fatalf("PlanMR+Release allocated %.1f objects/op, want 0", allocs)
	}
}

// contendedScheduler returns an FPB (GCP+IPM+Multi-RESET) scheduler whose
// DIMM tokens are all held, and a real profile that every candidate plan
// fails to admit against it.
func contendedScheduler() (*Scheduler, *pcm.WriteProfile) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeGCPIPMMR
	cfg.MultiResetSplit = pcm.MaxMultiResetSplit
	b := pcm.NewBuilder(&cfg, sim.NewRNG(7))
	cells := make([]int, 128)
	for i := range cells {
		cells[i] = i * 3 % cfg.CellsPerLine()
	}
	prof := b.BuildFromCells(0x40, cells, nil, mapping.New(cfg.CellMapping, cfg.CellsPerLine(), cfg.Chips), false)
	s := NewScheduler(&cfg, power.NewManager(&cfg, nil), nil)
	if _, ok := s.Manager().TryAcquire(power.Demand{DIMM: cfg.DIMMTokens}); !ok {
		panic("core: blocker not granted on an idle manager")
	}
	return s, prof
}

// TestFailedRetryZeroAlloc guards the admission retry path: once a queued
// write's plans are memoized, a denied TryStart re-runs only the token
// acquisition and must not touch the allocator.
func TestFailedRetryZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s, prof := contendedScheduler()
	var ps PlanSet
	if _, ok := s.TryStart(prof, &ps); ok {
		t.Fatal("admitted against a fully held DIMM budget")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := s.TryStart(prof, &ps); ok {
			t.Fatal("admitted against a fully held DIMM budget")
		}
	})
	if allocs != 0 {
		t.Fatalf("failed TryStart allocated %.1f objects/op, want 0", allocs)
	}
}

// TestProfileBuildSteadyStateZeroAlloc guards the profile pool end to end:
// Build + Release over realistic line content must be allocation-free once
// the pool holds a profile of sufficient shape.
func TestProfileBuildSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cfg := sim.DefaultConfig()
	rng := sim.NewRNG(11)
	b := pcm.NewBuilder(&cfg, rng)
	mapFn := mapping.New(cfg.CellMapping, cfg.CellsPerLine(), cfg.Chips)
	old := make([]byte, cfg.L3LineB)
	new := make([]byte, cfg.L3LineB)
	for i := range new {
		old[i] = byte(i)
		new[i] = byte(i * 7)
	}
	b.Release(b.Build(0x80, old, new, mapFn, cfg.WriteTruncation))
	allocs := testing.AllocsPerRun(1000, func() {
		b.Release(b.Build(0x80, old, new, mapFn, cfg.WriteTruncation))
	})
	if allocs != 0 {
		t.Fatalf("Build+Release allocated %.1f objects/op, want 0", allocs)
	}
}
