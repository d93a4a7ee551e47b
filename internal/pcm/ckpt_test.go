package pcm

import (
	"encoding/hex"
	"strings"
	"testing"

	"fpb/internal/ckpt"
)

// goldenStore holds dense lines at the start of page 0, lines on both sides
// of the page 0/1 boundary, and scattered lines further out, written out of
// address order and two of them rewritten.
func goldenStore() *Store {
	const lineB = 8
	s := NewStore(lineB)
	put := func(lineNo uint64, seed byte) {
		line := make([]byte, lineB)
		for i := range line {
			line[i] = seed + byte(i)
		}
		s.Update(lineNo*lineB, line)
	}
	for _, no := range []uint64{1000*PageLines + 5, 3*PageLines + 77, PageLines, PageLines - 1} {
		put(no, byte(no))
	}
	for no := uint64(0); no < 10; no++ {
		put(no, 0x10*byte(no))
	}
	put(3, 0xEE)
	put(PageLines, 0x77)
	return s
}

// storeImageGolden is goldenStore's checkpoint image. The encoding is part
// of the checkpoint format: a store layout change that alters it must also
// bump ckpt's format version.
const storeImageGolden = "465042434b505401090000000000000070636d2e73746f726508000000000000000e0000000000000004000000000000" +
	"0000000000000000000800000000000000ff030000000000000000000000000000000000000000000000000000000000" +
	"000000000000000000000000000000000000000000000000000000000000000080080000000000000000010203040506" +
	"0708000000000000001011121314151617080000000000000020212223242526270800000000000000eeeff0f1f2f3f4" +
	"f50800000000000000404142434445464708000000000000005051525354555657080000000000000060616263646566" +
	"670800000000000000707172737475767708000000000000008081828384858687080000000000000090919293949596" +
	"970800000000000000ff0001020304050601000000000000000800000000000000010000000000000000000000000000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000" +
	"0008000000000000007778797a7b7c7d7e03000000000000000800000000000000000000000000000000200000000000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000" +
	"0008000000000000004d4e4f5051525354e8030000000000000800000000000000200000000000000000000000000000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000" +
	"00080000000000000005060708090a0b0c9a0faa2c8bf1fbb2d2ad69bf3d7d3f82d440f79701d17ccb48740b15da101f" +
	"08"

func TestStoreSaveStateGolden(t *testing.T) {
	w := ckpt.NewWriter()
	goldenStore().SaveState(w)
	if got := hex.EncodeToString(w.Finish()); got != storeImageGolden {
		t.Fatalf("store image changed:\n got %s\nwant %s", got, storeImageGolden)
	}
}

func TestStoreStateRoundTrip(t *testing.T) {
	src := goldenStore()
	w := ckpt.NewWriter()
	src.SaveState(w)
	img := w.Finish()
	r, err := ckpt.NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewStore(8)
	dst.Put(8*7777, make([]byte, 8)) // restore replaces prior content
	if err := dst.RestoreState(r); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() || dst.Get(8*7777) != nil {
		t.Fatalf("restored store holds %d lines, want %d and no prior content", dst.Len(), src.Len())
	}
	w2 := ckpt.NewWriter()
	dst.SaveState(w2)
	if hex.EncodeToString(w2.Finish()) != hex.EncodeToString(img) {
		t.Error("re-encoding the restored store changed the image")
	}
}

// storeImage hand-encodes a store image of 1-byte lines: one page per
// entry of pages, each with the given lines written.
func storeImage(count uint64, pages []uint64, lines [][]uint64) []byte {
	w := ckpt.NewWriter()
	w.Section("pcm.store")
	w.U64(1)
	w.U64(count)
	w.U64(uint64(len(pages)))
	for i, idx := range pages {
		written := make([]uint64, PageLines/64)
		for _, slot := range lines[i] {
			written[slot/64] |= 1 << (slot % 64)
		}
		w.U64(idx)
		w.U64s(written)
		for range lines[i] {
			w.Bytes([]byte{7})
		}
	}
	return w.Finish()
}

func TestStoreRestoreRejectsInconsistentImage(t *testing.T) {
	for _, tc := range []struct {
		name  string
		img   []byte
		error string
	}{
		{"count above bitmaps", storeImage(3, []uint64{0, 2}, [][]uint64{{1}, {4}}), "counts 3"},
		{"count below bitmaps", storeImage(1, []uint64{0, 2}, [][]uint64{{1}, {4}}), "counts 1"},
		{"repeated page", storeImage(2, []uint64{2, 2}, [][]uint64{{1}, {4}}), "strictly ascending"},
		{"unsorted pages", storeImage(2, []uint64{2, 0}, [][]uint64{{1}, {4}}), "strictly ascending"},
		{"page past the address space", storeImage(1, []uint64{1 << 62}, [][]uint64{{1}}), "out of range"},
	} {
		r, err := ckpt.NewReader(tc.img)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStore(1)
		err = s.RestoreState(r)
		if err == nil || !strings.Contains(err.Error(), tc.error) {
			t.Errorf("%s: RestoreState = %v, want an error containing %q", tc.name, err, tc.error)
		}
	}
	r, err := ckpt.NewReader(storeImage(2, []uint64{0, 2}, [][]uint64{{1}, {4}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := NewStore(1).RestoreState(r); err != nil {
		t.Errorf("consistent image rejected: %v", err)
	}
}
