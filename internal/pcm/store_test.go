package pcm

import "testing"

func TestStoreGetUntouchedIsNil(t *testing.T) {
	s := NewStore(64)
	if s.Get(0x40) != nil {
		t.Error("untouched line should be nil (all zeros)")
	}
	if s.Len() != 0 {
		t.Error("empty store has nonzero Len")
	}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s := NewStore(4)
	data := []byte{1, 2, 3, 4}
	s.Put(0x100, data)
	got := s.Get(0x100)
	for i := range data {
		if got[i] != data[i] {
			t.Fatal("Get returned wrong content")
		}
	}
	// The store copies on Put: mutating the caller's slice afterwards must
	// not change stored content.
	data[0] = 99
	if s.Get(0x100)[0] != 1 {
		t.Error("Put aliased the caller's slice instead of copying")
	}
	next := []byte{5, 6, 7, 8}
	s.Put(0x100, next)
	if got := s.Get(0x100); got[0] != 5 {
		t.Error("second Put did not replace content")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestStoreUpdateReportsFreshness(t *testing.T) {
	s := NewStore(2)
	if !s.Update(0x10, []byte{1, 2}) {
		t.Error("first Update not reported fresh")
	}
	if s.Update(0x10, []byte{3, 4}) {
		t.Error("second Update reported fresh")
	}
	if !s.Update(0x12, []byte{5, 6}) {
		t.Error("Update of a different line not reported fresh")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestStoreNeighborsWithinPageStayNil(t *testing.T) {
	s := NewStore(8)
	s.Put(8*100, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	// Materializing line 100's page must not make its page neighbors
	// readable: they were never written and read as all zeros (nil).
	if s.Get(8*99) != nil || s.Get(8*101) != nil {
		t.Error("unwritten neighbor line in a materialized page is non-nil")
	}
}

func TestStoreCrossPageLines(t *testing.T) {
	s := NewStore(4)
	// Two lines PageLines apart land on different pages.
	a := uint64(0)
	b := uint64(4 * PageLines)
	s.Put(a, []byte{1, 1, 1, 1})
	s.Put(b, []byte{2, 2, 2, 2})
	if s.Get(a)[0] != 1 || s.Get(b)[0] != 2 {
		t.Error("cross-page lines interfere")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestStorePutWrongSizePanics(t *testing.T) {
	s := NewStore(8)
	defer func() {
		if recover() == nil {
			t.Error("Put with wrong size did not panic")
		}
	}()
	s.Put(0, []byte{1})
}

// TestStoreGetViewCannotReachNeighbor: lines share slabs, so a Get view is
// capped at its own line — appending to it must reallocate, never spill
// into the next line's storage.
func TestStoreGetViewCannotReachNeighbor(t *testing.T) {
	s := NewStore(2)
	s.Put(0, []byte{1, 1})
	s.Put(2, []byte{2, 2})
	if v := s.Get(0); cap(v) != 2 {
		t.Fatalf("Get view has capacity %d, want the line size 2", cap(v))
	}
	_ = append(s.Get(0), 9)
	if got := s.Get(2); got[0] != 2 {
		t.Errorf("append to a Get view overwrote the next line: %v", got)
	}
}
