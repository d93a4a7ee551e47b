// Package cache implements the write-back cache hierarchy of the simulated
// CMP: per-core private L1 and L2 SRAM caches and a private off-chip DRAM
// L3 whose line size equals the PCM memory line (Table 1). The hierarchy is
// functional (tags + dirty bits, true LRU) and reports which level served
// each access and which memory operations (demand fills and dirty
// writebacks) it generated; timing is applied by the CPU model.
package cache

import (
	"math/bits"
	"sync"
)

// Victim describes a line evicted by an allocation.
type Victim struct {
	Addr  uint64 // line-aligned address
	Dirty bool
}

// way is the per-way metadata, laid out set-major so the tag probe walks one
// contiguous run of memory per set instead of gathering from parallel
// slices. Access is the hottest function in the whole simulator (every
// instruction of every core goes through up to three of these probes), and
// clones copy metadata a set at a time, so the layout is packed to 16
// bytes: valid and dirty live in the low bits of the LRU word.
type way struct {
	tag  uint64 // line index
	meta uint64 // LRU tick << 2 | dirty << 1 | valid
}

const (
	wayValid  = 1 << 0
	wayDirty  = 1 << 1
	tickShift = 2
)

// Cache is one set-associative write-back, write-allocate cache level.
// The fields Access reads come first, so they share as few CPU cache lines
// as possible.
type Cache struct {
	meta []way // sets*ways, set-major; a clone's uncopied sets hold stale data
	// base is the read-only array a clone reads its uncopied sets from: the
	// array of the cache it was cloned from. It is nil for a cache that owns
	// all of its state. copied has one bit per set; once set s's bit is on,
	// meta holds that set and base is no longer read for it.
	base      []way
	tick      uint64
	hits      uint64
	misses    uint64
	setMask   uint64 // sets-1 when sets is a power of two (the common case)
	lineShift uint   // log2(lineB) when lineB is a power of two
	ways      int
	lineB     int
	linePow2  bool
	setPow2   bool
	sets      int
	copied    []uint64
}

// metaPools recycles way arrays by length. A full figure sweep builds
// hundreds of hierarchies (megabytes of metadata each); reusing released
// arrays keeps clones on warm pages instead of fault-zeroing fresh ones.
var metaPools sync.Map // len -> *sync.Pool of []way

func newMeta(n int, zero bool) []way {
	if p, ok := metaPools.Load(n); ok {
		if s, _ := p.(*sync.Pool).Get().([]way); s != nil {
			if zero {
				clear(s)
			}
			return s
		}
	}
	return make([]way, n)
}

// New builds a cache of sizeBytes capacity with the given line size and
// associativity. Sizes that do not divide evenly are rounded down to whole
// sets; a cache smaller than one set panics.
func New(sizeBytes, lineB, ways int) *Cache {
	if lineB <= 0 || ways <= 0 {
		panic("cache: line size and ways must be positive")
	}
	sets := sizeBytes / (lineB * ways)
	if sets <= 0 {
		panic("cache: capacity below one set")
	}
	c := &Cache{
		lineB: lineB,
		ways:  ways,
		sets:  sets,
		meta:  newMeta(sets*ways, true),
	}
	if lineB&(lineB-1) == 0 {
		c.lineShift = uint(bits.TrailingZeros(uint(lineB)))
		c.linePow2 = true
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
		c.setPow2 = true
	}
	return c
}

// LineBytes reports the cache's line size.
func (c *Cache) LineBytes() int { return c.lineB }

// Stats reports accumulated demand hits and misses.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Clone returns a copy-on-write clone: same tags, dirty bits, LRU state
// and statistics. The clone reads through to c's metadata and copies a set
// into its own array the first time it changes that set, so cloning costs
// one bit per set, not a copy of the metadata. A cache that owns its state
// lends its array to the clone as the clone's base: it must neither change
// nor be released while any clone of it is in use (the prefill snapshots
// in internal/system never change). A clone of a clone shares that base
// and copies the sets the first clone already owns, so both stay free to
// change.
func (c *Cache) Clone() *Cache {
	cp := *c
	cp.meta = newMeta(len(c.meta), false)
	cp.copied = make([]uint64, (c.sets+63)/64)
	if c.base == nil {
		cp.base = c.meta
		return &cp
	}
	copy(cp.copied, c.copied)
	for s := 0; s < c.sets; s++ {
		if c.owns(s) {
			lo := s * c.ways
			copy(cp.meta[lo:lo+c.ways], c.meta[lo:lo+c.ways])
		}
	}
	return &cp
}

// Release returns the cache's metadata array to the pool. The cache must
// not be used afterwards; callers release only when they own the last
// reference (e.g. a finished simulation tearing down). A clone releases
// only its own array, never its base.
func (c *Cache) Release() {
	if c.meta == nil {
		return
	}
	p, _ := metaPools.LoadOrStore(len(c.meta), &sync.Pool{})
	m := c.meta
	c.meta, c.base, c.copied = nil, nil, nil
	p.(*sync.Pool).Put(m)
}

// owns reports whether a clone's set s has been copied into meta.
func (c *Cache) owns(s int) bool {
	return c.copied[uint(s)>>6]&(1<<(uint(s)&63)) != 0
}

// own makes a clone's set s writable by copying it from base. Callers test
// owns first; keeping the copy out of line keeps Access's probe loop tight.
//
//go:noinline
func (c *Cache) own(s int) {
	c.copied[uint(s)>>6] |= 1 << (uint(s) & 63)
	lo := s * c.ways
	copy(c.meta[lo:lo+c.ways], c.base[lo:lo+c.ways])
}

// view returns set s's ways for reading, without copying a clone's set.
func (c *Cache) view(s int) []way {
	m := c.meta
	if c.base != nil && !c.owns(s) {
		m = c.base
	}
	lo := s * c.ways
	return m[lo : lo+c.ways]
}

// Checksum hashes the cache's metadata and LRU clock, reading a clone's
// uncopied sets through its base. Debug builds use it to prove that a
// shared base never changes.
func (c *Cache) Checksum() uint64 {
	h := uint64(0xcbf29ce484222325) ^ c.tick
	for s := 0; s < c.sets; s++ {
		for _, w := range c.view(s) {
			h = (h ^ w.tag) * 0x100000001b3
			h = (h ^ w.meta) * 0x100000001b3
		}
	}
	return h
}

func (c *Cache) lineIndex(addr uint64) uint64 {
	if c.linePow2 {
		return addr >> c.lineShift
	}
	return addr / uint64(c.lineB)
}

func (c *Cache) set(lineIdx uint64) int {
	if c.setPow2 {
		return int(lineIdx & c.setMask)
	}
	return int(lineIdx % uint64(c.sets))
}

// Access performs a demand access. On a miss the line is allocated
// (the fill itself is the caller's concern) and the LRU victim, if any,
// is returned. write marks the line dirty.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim Victim, evicted bool) {
	lineIdx := c.lineIndex(addr)
	c.tick++
	s := c.set(lineIdx)
	if c.base != nil && !c.owns(s) {
		c.own(s)
	}
	lo := s * c.ways
	set := c.meta[lo : lo+c.ways]
	var lruWay, invalidWay = -1, -1
	var lruTick uint64 = ^uint64(0)
	for w := range set {
		m := &set[w]
		if m.meta&wayValid == 0 {
			invalidWay = w
			continue
		}
		if m.tag == lineIdx {
			c.hits++
			flags := m.meta & (wayValid | wayDirty)
			if write {
				flags |= wayDirty
			}
			m.meta = c.tick<<tickShift | flags
			return true, Victim{}, false
		}
		if u := m.meta >> tickShift; u < lruTick {
			lruTick = u
			lruWay = w
		}
	}
	c.misses++
	w := invalidWay
	if w < 0 {
		w = lruWay
		m := &set[w]
		victim = Victim{Addr: m.tag * uint64(c.lineB), Dirty: m.meta&wayDirty != 0}
		evicted = true
	}
	flags := uint64(wayValid)
	if write {
		flags |= wayDirty
	}
	set[w] = way{tag: lineIdx, meta: c.tick<<tickShift | flags}
	return false, victim, evicted
}

// FillDistinct leaves a cold cache in exactly the state the loop
//
//	for _, k := range order { c.Access(line(k)) }
//
// would, provided the cache has never been accessed, order is a permutation
// of [0, len(order)) and line names a distinct line for every k. Under
// those conditions every access misses, so the end state is known in
// closed form: the j-th insert into a set (0-based) lands in way
// ways-1-(j mod ways) with LRU tick i+1, where i is its position in order;
// only each set's last ways inserts survive, each dirty iff it was a
// write; tick and misses advance by len(order).
//
// Per-set insert totals do not depend on order, so they are counted in
// natural order; order is then walked backwards writing only the
// survivors, youngest first (each one way up from the next younger,
// cyclically), stopping as soon as every set has all of them.
func (c *Cache) FillDistinct(order []int, line func(k int) (addr uint64, write bool)) {
	if c.tick != 0 || c.base != nil {
		panic("cache: FillDistinct on a cache that has been accessed or cloned")
	}
	type fillSet struct{ left, way int32 } // survivors still to write; the way the next one lands in
	sets := make([]fillSet, c.sets)
	for k := range order {
		addr, _ := line(k)
		sets[c.set(c.lineIndex(addr))].left++
	}
	ways := int32(c.ways)
	open := 0 // sets still missing survivors
	for s := range sets {
		if n := sets[s].left; n > 0 {
			sets[s] = fillSet{left: min(n, ways), way: ways - 1 - (n-1)%ways}
			open++
		}
	}
	for i := len(order) - 1; i >= 0 && open > 0; i-- {
		addr, write := line(order[i])
		lineIdx := c.lineIndex(addr)
		s := c.set(lineIdx)
		st := &sets[s]
		if st.left == 0 {
			continue
		}
		flags := uint64(wayValid)
		if write {
			flags |= wayDirty
		}
		c.meta[s*c.ways+int(st.way)] = way{tag: lineIdx, meta: uint64(i+1)<<tickShift | flags}
		if st.way++; st.way == ways {
			st.way = 0
		}
		if st.left--; st.left == 0 {
			open--
		}
	}
	c.tick = uint64(len(order))
	c.misses += uint64(len(order))
}

// Contains reports whether the line holding addr is cached (no LRU update).
func (c *Cache) Contains(addr uint64) bool {
	lineIdx := c.lineIndex(addr)
	set := c.view(c.set(lineIdx))
	for w := range set {
		if set[w].meta&wayValid != 0 && set[w].tag == lineIdx {
			return true
		}
	}
	return false
}

// IsDirty reports whether the line holding addr is cached dirty.
func (c *Cache) IsDirty(addr uint64) bool {
	lineIdx := c.lineIndex(addr)
	set := c.view(c.set(lineIdx))
	for w := range set {
		if set[w].meta&wayValid != 0 && set[w].tag == lineIdx {
			return set[w].meta&wayDirty != 0
		}
	}
	return false
}
