package pcm

import (
	"testing"

	"fpb/internal/mapping"
	"fpb/internal/sim"
)

func BenchmarkDiffCells256B(b *testing.B) {
	old := make([]byte, 256)
	new := make([]byte, 256)
	for i := range new {
		if i%3 == 0 {
			new[i] = 0xA5
		}
	}
	var cells []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells = DiffCells(cells[:0], old, new, 2)
	}
	if len(cells) == 0 {
		b.Fatal("no diff")
	}
}

func BenchmarkCountChangedCells(b *testing.B) {
	old := make([]byte, 256)
	new := make([]byte, 256)
	for i := range new {
		new[i] = byte(i)
	}
	for i := 0; i < b.N; i++ {
		if CountChangedCells(old, new, 2) == 0 {
			b.Fatal("no changes")
		}
	}
}

func BenchmarkProfileBuild(b *testing.B) {
	cfg := sim.DefaultConfig()
	builder := NewBuilder(&cfg, sim.NewRNG(1))
	mapFn := mapping.New(sim.MapBIM, cfg.CellsPerLine(), cfg.Chips)
	old := make([]byte, cfg.L3LineB)
	new := make([]byte, cfg.L3LineB)
	for i := 0; i < 200; i++ {
		SetCell(new, i*5, 2, CellState(1+i%3))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := builder.Build(uint64(i)*256, old, new, mapFn, false)
		if p.Changed == 0 {
			b.Fatal("empty profile")
		}
		// Steady state: the controller releases every profile it builds.
		builder.Release(p)
	}
}

func BenchmarkIterModelDraw(b *testing.B) {
	cfg := sim.DefaultConfig()
	m := NewIterModel(&cfg, sim.NewRNG(2))
	for i := 0; i < b.N; i++ {
		if m.Draw(State01) < 2 {
			b.Fatal("bad draw")
		}
	}
}

// BenchmarkStoreScatteredUpdate measures a fresh store taking 64 first
// writes spaced PageLines apart, the scattered writeback shape of a short
// run over a large footprint.
func BenchmarkStoreScatteredUpdate(b *testing.B) {
	const lineB = 256
	line := make([]byte, lineB)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStore(lineB)
		for k := uint64(0); k < 64; k++ {
			line[0] = byte(k)
			s.Update(k*PageLines*lineB, line)
		}
	}
}
