package cache

import (
	"fmt"

	"fpb/internal/ckpt"
)

// SaveDelta serializes the cache's model state as a sparse delta against
// base: a geometry header (so a restore into a differently shaped cache
// fails loudly), the LRU tick, and the (index, tag, meta) triple of every
// way whose metadata differs from the baseline. Checkpoints are taken after
// a warmup phase that touches a small fraction of a prefilled cache, so the
// delta is orders of magnitude smaller than a full tag/meta dump (a 32 MB
// L3 is ~2.6 MB of metadata per core). Demand hit/miss counters are
// measurement state, not model state — they are zeroed at the barrier on
// both the cold and the restored path — so they are not captured.
//
// base must hold the cache's pre-warmup content; RestoreDelta's target must
// hold that identical baseline (both sides derive it from the deterministic
// prefill, see internal/system).
func (c *Cache) SaveDelta(w *ckpt.Writer, base *Cache) {
	if base.sets != c.sets || base.ways != c.ways {
		panic(fmt.Sprintf("cache: delta baseline has %dx%d ways, cache has %dx%d",
			base.sets, base.ways, c.sets, c.ways))
	}
	w.Section("cache")
	w.U64(uint64(c.lineB))
	w.U64(uint64(c.ways))
	w.U64(uint64(c.sets))
	w.U64(c.tick)
	n := uint64(0)
	c.diff(base, func(int, way) { n++ })
	w.U64(n)
	c.diff(base, func(i int, m way) {
		w.U64(uint64(i))
		w.U64(m.tag)
		w.U64(m.meta)
	})
}

// diff calls fn, in index order, for every way whose metadata differs from
// base's. A clone of base itself skips its uncopied sets: they read
// through to base, so they cannot differ.
func (c *Cache) diff(base *Cache, fn func(i int, m way)) {
	shared := c.base != nil && base.base == nil && &c.base[0] == &base.meta[0]
	for s := 0; s < c.sets; s++ {
		if shared && !c.owns(s) {
			continue
		}
		cs, bs := c.view(s), base.view(s)
		for j := range cs {
			if cs[j] != bs[j] {
				fn(s*c.ways+j, cs[j])
			}
		}
	}
}

// RestoreDelta applies a delta written by SaveDelta onto a cache of
// identical geometry holding the identical baseline content, and zeroes the
// measurement counters.
func (c *Cache) RestoreDelta(r *ckpt.Reader) error {
	r.Section("cache")
	lineB, ways, sets := r.U64(), r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if int(lineB) != c.lineB || int(ways) != c.ways || int(sets) != c.sets {
		return fmt.Errorf("cache: geometry mismatch: image %dB/%dw/%ds, cache %dB/%dw/%ds",
			lineB, ways, sets, c.lineB, c.ways, c.sets)
	}
	c.tick = r.U64()
	n := r.U64()
	if n > uint64(len(c.meta)) {
		return fmt.Errorf("cache: delta has %d entries, cache has %d ways", n, len(c.meta))
	}
	for j := uint64(0); j < n; j++ {
		i := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if i >= uint64(len(c.meta)) {
			return fmt.Errorf("cache: delta way index %d out of range (%d ways)", i, len(c.meta))
		}
		if s := int(i) / c.ways; c.base != nil && !c.owns(s) {
			c.own(s)
		}
		c.meta[i].tag = r.U64()
		c.meta[i].meta = r.U64()
	}
	c.hits, c.misses = 0, 0
	return r.Err()
}

// SaveDelta serializes all three levels against the baseline hierarchy.
func (h *Hierarchy) SaveDelta(w *ckpt.Writer, base *Hierarchy) {
	w.Section("hier")
	h.l1.SaveDelta(w, base.l1)
	h.l2.SaveDelta(w, base.l2)
	h.l3.SaveDelta(w, base.l3)
}

// RestoreDelta applies all three levels' deltas onto a hierarchy holding
// the baseline content.
func (h *Hierarchy) RestoreDelta(r *ckpt.Reader) error {
	r.Section("hier")
	if err := h.l1.RestoreDelta(r); err != nil {
		return err
	}
	if err := h.l2.RestoreDelta(r); err != nil {
		return err
	}
	return h.l3.RestoreDelta(r)
}
