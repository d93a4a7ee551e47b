package pcm

import (
	"fmt"
	"reflect"
	"testing"

	"fpb/internal/mapping"
	"fpb/internal/sim"
)

// referenceBuildFromCells is the original O(cells × iterations) profile
// build, kept verbatim as the specification BuildFromCells must match.
func referenceBuildFromCells(b *Builder, lineAddr uint64, cells []int, targets []CellState, mapFn mapping.Func, truncate bool) *WriteProfile {
	p := b.newProfile()
	p.LineAddr = lineAddr
	p.Changed = len(cells)
	p.Truncated = 0
	p.PerChip = resizeInts(p.PerChip, b.cfg.Chips)
	maxIters := b.cfg.IterMax
	b.iterOf = resizeInts(b.iterOf, len(cells))
	b.chipOf = resizeInts(b.chipOf, len(cells))
	iterOf, chipOf := b.iterOf, b.chipOf
	total := 1
	for i, cell := range cells {
		var target CellState
		if targets != nil {
			target = targets[i]
		} else {
			target = CellState(b.iters.rng.Intn(4))
		}
		t := b.iters.Draw(target)
		iterOf[i] = t
		chip := mapFn(cell)
		chipOf[i] = chip
		p.PerChip[chip]++
		if t > total {
			total = t
		}
	}
	if total > maxIters {
		total = maxIters
	}
	p.TotalIters = total
	p.RemainTotal = resizeInts(p.RemainTotal, total+1)
	if cap(p.RemainPerChip) < total+1 {
		rows := make([][]int, total+1)
		copy(rows, p.RemainPerChip[:cap(p.RemainPerChip)])
		p.RemainPerChip = rows
	} else {
		p.RemainPerChip = p.RemainPerChip[:total+1]
	}
	for k := range p.RemainPerChip {
		p.RemainPerChip[k] = resizeInts(p.RemainPerChip[k], b.cfg.Chips)
	}
	for i := range cells {
		t := iterOf[i]
		// The cell is unfinished after iterations 0..t-1.
		for k := 0; k < t && k <= total; k++ {
			p.RemainTotal[k]++
			p.RemainPerChip[k][chipOf[i]]++
		}
	}

	// Multi-RESET static groups (reuse the [m][chip][group] shape across
	// pooled profiles: the chip count is fixed per Builder).
	if p.MRGroups == nil {
		p.MRGroups = make([][][]int, MaxMultiResetSplit+1)
		for m := 2; m <= MaxMultiResetSplit; m++ {
			g := make([][]int, b.cfg.Chips)
			for c := range g {
				g[c] = make([]int, m)
			}
			p.MRGroups[m] = g
		}
	} else {
		for m := 2; m <= MaxMultiResetSplit; m++ {
			for _, counts := range p.MRGroups[m] {
				clear(counts)
			}
		}
	}
	for m := 2; m <= MaxMultiResetSplit; m++ {
		g := p.MRGroups[m]
		for i, cell := range cells {
			g[chipOf[i]][(cell/mrGroupGranularity)%m]++
		}
	}

	if truncate && b.cfg.TruncateTailCells > 0 {
		p.applyTruncation(b.cfg.TruncateTailCells)
	}
	return p
}

// profileFields lists every observable field of a profile, in order.
func profileFields(p *WriteProfile) []any {
	return []any{p.LineAddr, p.Changed, p.PerChip, p.TotalIters, p.RemainTotal,
		p.RemainPerChip, p.MRGroups, p.Truncated}
}

// twinBuilders returns the builder under test and the reference builder,
// seeded identically so both draw the same iteration sequence.
func twinBuilders(cfg *sim.Config) (got, ref *Builder) {
	return NewBuilder(cfg, sim.NewRNG(cfg.Seed)), NewBuilder(cfg, sim.NewRNG(cfg.Seed))
}

// compareBuild builds the same write on both builders and fails on any
// field that differs. It returns both profiles for the caller to release.
func compareBuild(t *testing.T, name string, got, ref *Builder, cells []int, targets []CellState, mapFn mapping.Func, truncate bool) (*WriteProfile, *WriteProfile) {
	t.Helper()
	pg := got.BuildFromCells(0x4000, cells, targets, mapFn, truncate)
	pr := referenceBuildFromCells(ref, 0x4000, cells, targets, mapFn, truncate)
	names := []string{"LineAddr", "Changed", "PerChip", "TotalIters", "RemainTotal",
		"RemainPerChip", "MRGroups", "Truncated"}
	fg, fr := profileFields(pg), profileFields(pr)
	for i := range fg {
		if !reflect.DeepEqual(fg[i], fr[i]) {
			t.Errorf("%s: %s = %v, reference %v", name, names[i], fg[i], fr[i])
		}
	}
	return pg, pr
}

// cellSet returns n distinct changed cells spread over the line (7919 is
// prime, so i*7919 mod cells never repeats), with target states cycling
// through every level.
func cellSet(cfg *sim.Config, n int) ([]int, []CellState) {
	per := cfg.CellsPerLine()
	cells := make([]int, n)
	targets := make([]CellState, n)
	for i := range cells {
		cells[i] = (i * 7919) % per
		targets[i] = CellState(i % (1 << cfg.BitsPerCell))
	}
	return cells, targets
}

// TestBuildFromCellsMatchesReference: the O(cells) build produces every
// profile field exactly as the original nested loop did: with no, some and
// all cells changed, SLC and MLC, truncation on and off, nil targets, an
// IterMax clamp that hits, and a pooled profile reused across larger and
// smaller TotalIters.
func TestBuildFromCellsMatchesReference(t *testing.T) {
	type tc struct {
		bits     int
		changed  string // "none", "some", "all"
		truncate bool
		nilTgt   bool
		iterMax  int // set after the builders are made (their draws still reach 16), so the clamp hits
	}
	var cases []tc
	for _, bits := range []int{1, 2} {
		for _, changed := range []string{"none", "some", "all"} {
			for _, truncate := range []bool{false, true} {
				for _, nilTgt := range []bool{false, true} {
					for _, iterMax := range []int{0, 3} {
						cases = append(cases, tc{bits, changed, truncate, nilTgt, iterMax})
					}
				}
			}
		}
	}
	for _, c := range cases {
		name := fmt.Sprintf("bits=%d/%s/truncate=%v/nil-targets=%v/itermax=%d",
			c.bits, c.changed, c.truncate, c.nilTgt, c.iterMax)
		cfg := sim.DefaultConfig()
		cfg.BitsPerCell = c.bits
		cfg.TruncateTailCells = 3
		got, ref := twinBuilders(&cfg)
		if c.iterMax > 0 {
			cfg.IterMax = c.iterMax
		}
		n := map[string]int{"none": 0, "some": 220, "all": cfg.CellsPerLine()}[c.changed]
		cells, targets := cellSet(&cfg, n)
		if c.nilTgt {
			targets = nil
		}
		mapFn := mapping.New(sim.MapBIM, cfg.CellsPerLine(), cfg.Chips)
		for seed := 0; seed < 4; seed++ {
			got.iters.rng.Reseed(uint64(seed))
			ref.iters.rng.Reseed(uint64(seed))
			pg, pr := compareBuild(t, name, got, ref, cells, targets, mapFn, c.truncate)
			got.Release(pg)
			ref.Release(pr)
		}
	}
	t.Run("pooled reuse", testPooledReuseMatchesReference)
}

// testPooledReuseMatchesReference: a pooled profile rebuilt for a write
// with fewer iterations than its previous use (so its rows shrink) and
// then more (so they grow past the old length) still matches the
// reference.
func testPooledReuseMatchesReference(t *testing.T) {
	cfg := sim.DefaultConfig()
	got, ref := twinBuilders(&cfg)
	mapFn := mapping.New(sim.MapVIM, cfg.CellsPerLine(), cfg.Chips)
	slow, slowT := cellSet(&cfg, 300)
	for i := range slowT {
		slowT[i] = State01 // mean 8 iterations
	}
	fast := []int{0, 5, 9}
	fastT := []CellState{State11, State11, State00} // at most 2 iterations
	var prev int
	for i, step := range []struct {
		cells   []int
		targets []CellState
	}{{slow, slowT}, {fast, fastT}, {slow, slowT}} {
		pg, pr := compareBuild(t, fmt.Sprintf("step %d", i), got, ref, step.cells, step.targets, mapFn, false)
		switch i {
		case 1:
			if pg.TotalIters >= prev {
				t.Fatalf("step 1: TotalIters %d, want below the previous %d", pg.TotalIters, prev)
			}
		case 2:
			if pg.TotalIters <= prev {
				t.Fatalf("step 2: TotalIters %d, want above the previous %d", pg.TotalIters, prev)
			}
		}
		prev = pg.TotalIters
		got.Release(pg)
		ref.Release(pr)
	}
}
