package pcm

import (
	"fmt"
	"math"
	"slices"

	"fpb/internal/ckpt"
)

// SaveState serializes the store's content sparsely: line size, written-line
// count, then the written lines grouped into PageLines-line pages in
// ascending page order (so the encoding is independent of map iteration
// and slot order), each page as its index, its written-line bitmap and the
// data of its written lines in line order. Unwritten lines are all-zero by
// construction — Get never returns them — so they are not serialized.
func (s *Store) SaveState(w *ckpt.Writer) {
	w.Section("pcm.store")
	w.U64(uint64(s.lineBytes))
	w.U64(uint64(len(s.slot)))
	lines := make([]uint64, 0, len(s.slot))
	for no := range s.slot {
		lines = append(lines, no)
	}
	slices.Sort(lines)
	pages := 0
	for i, no := range lines {
		if i == 0 || no/PageLines != lines[i-1]/PageLines {
			pages++
		}
	}
	w.U64(uint64(pages))
	written := make([]uint64, PageLines/64)
	for i := 0; i < len(lines); {
		page := lines[i] / PageLines
		clear(written)
		j := i
		for ; j < len(lines) && lines[j]/PageLines == page; j++ {
			slot := lines[j] % PageLines
			written[slot/64] |= 1 << (slot % 64)
		}
		w.U64(page)
		w.U64s(written)
		for _, no := range lines[i:j] {
			w.Bytes(s.line(s.slot[no]))
		}
		i = j
	}
}

// RestoreState loads content written by SaveState into a store of the same
// line size, replacing whatever it held. It rejects an image whose pages
// are not in strictly ascending order or whose count disagrees with its
// bitmaps. The fpbdebug aliasing guard starts clean.
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
	fresh := NewStore(s.lineBytes)
	// Every line address of a page below maxPage fits in a uint64.
	maxPage := math.MaxUint64 / lineBytes / PageLines
	var prev uint64
	for i := uint64(0); i < nPages; i++ {
		idx := r.U64()
		written := r.U64s()
		if err := r.Err(); err != nil {
			return err
		}
		if len(written) != PageLines/64 {
			return fmt.Errorf("pcm: page %d has wrong bitmap shape (%d words)", idx, len(written))
		}
		if idx >= maxPage {
			return fmt.Errorf("pcm: page index %d out of range", idx)
		}
		if i > 0 && idx <= prev {
			return fmt.Errorf("pcm: page %d follows page %d: pages must be strictly ascending", idx, prev)
		}
		prev = idx
		for slot := uint64(0); slot < PageLines; slot++ {
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
			fresh.Update((idx*PageLines+slot)*lineBytes, line)
		}
	}
	if count != uint64(fresh.Len()) {
		return fmt.Errorf("pcm: image counts %d written lines, its pages hold %d", count, fresh.Len())
	}
	s.slot, s.slabs = fresh.slot, fresh.slabs
	s.guard = storeGuard{}
	return nil
}
