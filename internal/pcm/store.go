package pcm

// SlabLines is the number of lines per storage slab. Lines are carved from
// slabs in first-write order, whatever their addresses, so a store's
// memory is O(lines written): a short run's few hundred scattered
// writebacks fill a few hundred lines, not a page per address region.
// With the default 256-byte line a slab is 4 KB, which is also the
// smallest a store that has taken any write allocates for content.
const SlabLines = 16

// PageLines is the number of lines the checkpoint image groups under one
// written-line bitmap (see SaveState). It is part of the image format, not
// of the store's layout.
const PageLines = 512

// Store is the content store for PCM main memory: every written line owns
// one slot of lineBytes bytes in a slab, found through a line-number index.
// Unwritten lines read as nil (all zeros), matching the paper's Fig. 3
// assumption that memory initially contains 0s.
type Store struct {
	lineBytes int
	slot      map[uint64]int // line number -> slot; slot k lives in slabs[k/SlabLines]
	slabs     [][]byte       // SlabLines*lineBytes each
	guard     storeGuard
}

// NewStore creates a store for lines of lineBytes bytes.
func NewStore(lineBytes int) *Store {
	return &Store{lineBytes: lineBytes, slot: make(map[uint64]int)}
}

// LineBytes reports the line size.
func (s *Store) LineBytes() int { return s.lineBytes }

// Len reports how many distinct lines have been written.
func (s *Store) Len() int { return len(s.slot) }

// line returns slot k's storage.
func (s *Store) line(k int) []byte {
	off := k % SlabLines * s.lineBytes
	return s.slabs[k/SlabLines][off : off+s.lineBytes : off+s.lineBytes]
}

// Get returns the current content of the line at lineAddr, or nil if the
// line has never been written (all zeros). The returned slice is a view
// into the store, valid until the line is next written; callers must not
// mutate it — build with the fpbdebug tag to enforce this.
func (s *Store) Get(lineAddr uint64) []byte {
	k, ok := s.slot[lineAddr/uint64(s.lineBytes)]
	if !ok {
		return nil
	}
	line := s.line(k)
	s.guard.onGet(lineAddr, line)
	return line
}

// Put copies data into the line at lineAddr. The store never takes
// ownership of data; the line's storage is reused in place.
func (s *Store) Put(lineAddr uint64, data []byte) {
	s.Update(lineAddr, data)
}

// Update is Put reporting whether this is the line's first write — the
// combined check-and-store the controller uses for wear accounting without
// a separate lookup.
func (s *Store) Update(lineAddr uint64, data []byte) (fresh bool) {
	if len(data) != s.lineBytes {
		panic("pcm: Put with wrong line size")
	}
	lineNo := lineAddr / uint64(s.lineBytes)
	k, ok := s.slot[lineNo]
	if !ok {
		k = len(s.slot)
		if k%SlabLines == 0 {
			s.slabs = append(s.slabs, make([]byte, SlabLines*s.lineBytes))
		}
		s.slot[lineNo] = k
	}
	line := s.line(k)
	s.guard.onPut(lineAddr, line)
	copy(line, data)
	return !ok
}
