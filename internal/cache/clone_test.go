package cache

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"fpb/internal/ckpt"
	"fpb/internal/sim"
)

// cloneTestCache returns a 64-set, 4-way cache of 64 B lines warmed by a
// seeded mix of reads and writes over four times its capacity.
func cloneTestCache(seed uint64) *Cache {
	c := New(64*4*64, 64, 4)
	rng := sim.NewRNG(seed)
	for i := 0; i < 4096; i++ {
		c.Access(rng.Uint64n(1024)*64, rng.Bernoulli(0.3))
	}
	return c
}

// deepCopy is the reference clone: a private copy of every set.
func deepCopy(c *Cache) *Cache {
	cp := *c
	cp.meta = make([]way, len(c.meta))
	for s := 0; s < c.sets; s++ {
		copy(cp.meta[s*c.ways:], c.view(s))
	}
	cp.base, cp.copied = nil, nil
	return &cp
}

func delta(c, base *Cache) []byte {
	w := ckpt.NewWriter()
	c.SaveDelta(w, base)
	return w.Finish()
}

func restore(t *testing.T, c *Cache, img []byte) {
	t.Helper()
	r, err := ckpt.NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreDelta(r); err != nil {
		t.Fatal(err)
	}
}

// TestCloneMatchesDeepCopy drives a copy-on-write clone and an eager deep
// copy of one warmed cache with the same seeded sequence of accesses,
// probes, delta saves and delta restores, then clones both mid-way and
// drives the second generation too. Every return value and every delta
// must agree, and the shared base must come out untouched.
func TestCloneMatchesDeepCopy(t *testing.T) {
	base := cloneTestCache(1)
	pristine, tick := slices.Clone(base.meta), base.tick
	lazy, eager := []*Cache{base.Clone()}, []*Cache{deepCopy(base)}
	rng := sim.NewRNG(2)
	var saved []byte
	for step := 0; step < 6000; step++ {
		if step == 3000 {
			lazy = append(lazy, lazy[0].Clone())
			eager = append(eager, deepCopy(eager[0]))
		}
		addr := rng.Uint64n(2048)*64 + rng.Uint64n(64)
		for i := range lazy {
			l, e := lazy[i], eager[i]
			switch op := rng.Uint64n(100); {
			case op < 70:
				write := op < 20
				lh, lv, lev := l.Access(addr, write)
				eh, ev, eev := e.Access(addr, write)
				if lh != eh || lv != ev || lev != eev {
					t.Fatalf("step %d clone %d: Access(%#x, %v) = %v %+v %v, deep copy %v %+v %v",
						step, i, addr, write, lh, lv, lev, eh, ev, eev)
				}
			case op < 85:
				if l.Contains(addr) != e.Contains(addr) || l.IsDirty(addr) != e.IsDirty(addr) {
					t.Fatalf("step %d clone %d: Contains/IsDirty(%#x) disagree", step, i, addr)
				}
			case op < 97:
				ld, ed := delta(l, base), delta(e, base)
				if !bytes.Equal(ld, ed) {
					t.Fatalf("step %d clone %d: SaveDelta differs from the deep copy's", step, i)
				}
				saved = ld
			default:
				if saved != nil {
					restore(t, l, saved)
					restore(t, e, saved)
				}
			}
		}
	}
	for i := range lazy {
		if !bytes.Equal(delta(lazy[i], base), delta(eager[i], base)) {
			t.Errorf("clone %d: final SaveDelta differs from the deep copy's", i)
		}
		lh, lm := lazy[i].Stats()
		eh, em := eager[i].Stats()
		if lh != eh || lm != em {
			t.Errorf("clone %d: stats %d/%d, deep copy %d/%d", i, lh, lm, eh, em)
		}
	}
	// A fresh clone restored from the final delta is the same cache again.
	fresh := base.Clone()
	restore(t, fresh, delta(lazy[0], base))
	if !bytes.Equal(delta(fresh, base), delta(eager[0], base)) {
		t.Error("a fresh clone restored from the final delta differs")
	}
	if !slices.Equal(base.meta, pristine) || base.tick != tick {
		t.Error("driving the clones changed their base")
	}
}

// TestConcurrentClonesOfOneBase: clones of one base are driven from two
// goroutines at once (run under -race). Each must end exactly where a
// private deep copy driven alone ends.
func TestConcurrentClonesOfOneBase(t *testing.T) {
	base := cloneTestCache(3)
	drive := func(c *Cache, seed uint64) []byte {
		rng := sim.NewRNG(seed)
		for i := 0; i < 5000; i++ {
			c.Access(rng.Uint64n(2048)*64, rng.Bernoulli(0.3))
			c.Contains(rng.Uint64n(2048) * 64)
		}
		return delta(c, base)
	}
	var got [2][]byte
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := base.Clone()
			got[g] = drive(c, uint64(10+g))
			c.Release()
		}()
	}
	wg.Wait()
	for g := range got {
		if want := drive(deepCopy(base), uint64(10+g)); !bytes.Equal(got[g], want) {
			t.Errorf("goroutine %d: clone state differs from a deep copy's", g)
		}
	}
}
