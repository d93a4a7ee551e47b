package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"fpb/internal/sim"
)

func TestCacheHitAfterMiss(t *testing.T) {
	c := New(1024, 64, 2) // 8 sets
	hit, _, ev := c.Access(0x100, false)
	if hit || ev {
		t.Fatal("first access must be a clean miss")
	}
	hit, _, _ = c.Access(0x100, false)
	if !hit {
		t.Fatal("second access must hit")
	}
	if !c.Contains(0x100) || c.Contains(0x9000) {
		t.Error("Contains wrong")
	}
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Errorf("stats = %d/%d, want 1/1", h, m)
	}
}

func TestCacheSameLineDifferentOffsets(t *testing.T) {
	c := New(1024, 64, 2)
	c.Access(0x100, false)
	if hit, _, _ := c.Access(0x13F, false); !hit {
		t.Error("access within same line missed")
	}
	if hit, _, _ := c.Access(0x140, false); hit {
		t.Error("access to next line hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2*64, 64, 2) // one set, two ways
	c.Access(0x0, false)
	c.Access(0x40, false)
	c.Access(0x0, false) // touch A so B is LRU
	hit, v, ev := c.Access(0x80, false)
	if hit || !ev {
		t.Fatal("third distinct line must evict")
	}
	if v.Addr != 0x40 {
		t.Errorf("evicted %#x, want LRU 0x40", v.Addr)
	}
	if v.Dirty {
		t.Error("clean line evicted dirty")
	}
	if !c.Contains(0x0) || c.Contains(0x40) {
		t.Error("wrong resident set after eviction")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := New(2*64, 64, 2)
	c.Access(0x0, true) // dirty
	c.Access(0x40, false)
	c.Access(0x40, false) // A is LRU
	_, v, ev := c.Access(0x80, false)
	if !ev || !v.Dirty || v.Addr != 0x0 {
		t.Errorf("want dirty eviction of 0x0, got %+v ev=%v", v, ev)
	}
}

func TestCacheWriteHitSetsDirty(t *testing.T) {
	c := New(1024, 64, 2)
	c.Access(0x200, false)
	if c.IsDirty(0x200) {
		t.Error("clean fill marked dirty")
	}
	c.Access(0x200, true)
	if !c.IsDirty(0x200) {
		t.Error("write hit did not set dirty")
	}
	if c.IsDirty(0x4000) {
		t.Error("absent line reported dirty")
	}
}

func TestCacheInvalidConfigPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 64, 2) },
		func() { New(1024, 0, 2) },
		func() { New(1024, 64, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid cache config did not panic")
				}
			}()
			f()
		}()
	}
}

func TestCacheNeverExceedsCapacityProperty(t *testing.T) {
	err := quick.Check(func(addrs []uint16) bool {
		c := New(512, 64, 2) // 8 lines total
		for _, a := range addrs {
			c.Access(uint64(a), a%3 == 0)
		}
		resident := 0
		for line := uint64(0); line < 1024; line++ {
			if c.Contains(line * 64) {
				resident++
			}
		}
		return resident <= 8
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestCacheStreamingEvictsEverything(t *testing.T) {
	c := New(4096, 64, 4) // 64 lines
	// Two full laps over 128 lines: every access of lap 2 must miss.
	for lap := 0; lap < 2; lap++ {
		start, _ := c.Stats()
		for i := 0; i < 128; i++ {
			c.Access(uint64(i)*64, false)
		}
		h, _ := c.Stats()
		if h != start {
			t.Fatalf("lap %d produced %d hits; streaming must thrash", lap, h-start)
		}
	}
}

// TestFillDistinctMatchesAccessLoop checks FillDistinct against the Access
// loop it replaces, on random distinct-line sequences: sets left partly
// filled, power-of-two and odd set counts, a non-power-of-two line size and
// mixed dirty flags. Metadata, tick and both counters must be identical.
func TestFillDistinctMatchesAccessLoop(t *testing.T) {
	geoms := []struct{ size, lineB, ways int }{
		{16 * 8 * 64, 64, 8}, // 16 sets
		{12 * 4 * 64, 64, 4}, // 12 sets
		{5 * 3 * 96, 96, 3},  // 5 sets, 96 B lines
		{1 * 2 * 256, 256, 2},
	}
	rng := sim.NewRNG(7)
	for _, g := range geoms {
		capLines := g.size / g.lineB
		for _, n := range []int{0, 1, capLines / 3, capLines, 2*capLines + 3, 5 * capLines} {
			// n distinct lines drawn from a range four times wider, so
			// sets receive uneven shares; addresses land mid-line.
			pick := make([]int, 4*n+4)
			rng.Perm(pick)
			addrs := make([]uint64, n)
			writes := make([]bool, n)
			for k := range addrs {
				addrs[k] = uint64(pick[k]*g.lineB + k%g.lineB)
				writes[k] = rng.Bernoulli(0.4)
			}
			order := make([]int, n)
			rng.Perm(order)

			want := New(g.size, g.lineB, g.ways)
			for _, k := range order {
				want.Access(addrs[k], writes[k])
			}
			got := New(g.size, g.lineB, g.ways)
			got.FillDistinct(order, func(k int) (uint64, bool) { return addrs[k], writes[k] })

			if !reflect.DeepEqual(got.meta, want.meta) {
				t.Errorf("%+v n=%d: metadata differs from the Access loop", g, n)
			}
			if got.tick != want.tick || got.hits != want.hits || got.misses != want.misses {
				t.Errorf("%+v n=%d: tick/hits/misses %d/%d/%d, want %d/%d/%d", g, n,
					got.tick, got.hits, got.misses, want.tick, want.hits, want.misses)
			}
		}
	}
}

func TestFillDistinctRejectsWarmCache(t *testing.T) {
	c := New(1024, 64, 2)
	c.Access(0, false)
	defer func() {
		if recover() == nil {
			t.Error("FillDistinct on an accessed cache did not panic")
		}
	}()
	c.FillDistinct([]int{0}, func(int) (uint64, bool) { return 64, false })
}
