package pcm

import (
	"fmt"
	"sort"

	"fpb/internal/ckpt"
)

// SaveState serializes the store's content sparsely: line size, written-line
// count, and for every materialized page (ascending index order, so the
// encoding is independent of map iteration order) its written bitmap plus
// the data of written lines only. Unwritten slots in a page are all-zero by
// construction — Get never returns them — so serializing them would inflate
// the image by orders of magnitude (a streaming warmup touches a few hundred
// lines across pages holding half a million).
func (s *Store) SaveState(w *ckpt.Writer) {
	w.Section("pcm.store")
	w.U64(uint64(s.lineBytes))
	w.U64(uint64(s.count))
	idxs := make([]uint64, 0, len(s.pages))
	for idx := range s.pages {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	w.U64(uint64(len(idxs)))
	for _, idx := range idxs {
		p := s.pages[idx]
		w.U64(idx)
		w.U64s(p.written)
		for slot := 0; slot < PageLines; slot++ {
			if p.written[slot/64]&(1<<(slot%64)) != 0 {
				w.Bytes(p.data[slot*s.lineBytes : (slot+1)*s.lineBytes])
			}
		}
	}
}

// RestoreState loads content written by SaveState into a store of the same
// line size, replacing whatever it held. Pages are installed directly (not
// through Put), so the fpbdebug aliasing guard starts clean.
func (s *Store) RestoreState(r *ckpt.Reader) error {
	r.Section("pcm.store")
	lineBytes := r.U64()
	count := r.U64()
	nPages := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if int(lineBytes) != s.lineBytes {
		return fmt.Errorf("pcm: line size mismatch: image %dB, store %dB", lineBytes, s.lineBytes)
	}
	pages := make(map[uint64]*storePage, nPages)
	for i := uint64(0); i < nPages; i++ {
		idx := r.U64()
		written := r.U64s()
		if err := r.Err(); err != nil {
			return err
		}
		if len(written) != PageLines/64 {
			return fmt.Errorf("pcm: page %d has wrong bitmap shape (%d words)", idx, len(written))
		}
		p := &storePage{
			data:    make([]byte, PageLines*s.lineBytes),
			written: written,
		}
		for slot := 0; slot < PageLines; slot++ {
			if written[slot/64]&(1<<(slot%64)) == 0 {
				continue
			}
			line := r.Bytes()
			if err := r.Err(); err != nil {
				return err
			}
			if len(line) != s.lineBytes {
				return fmt.Errorf("pcm: page %d slot %d has %d-byte line, store wants %d",
					idx, slot, len(line), s.lineBytes)
			}
			copy(p.data[slot*s.lineBytes:], line)
		}
		pages[idx] = p
	}
	s.pages = pages
	s.count = int(count)
	s.lastIdx, s.lastPage = ^uint64(0), nil
	s.guard = storeGuard{}
	return nil
}
