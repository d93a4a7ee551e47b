package pcm

import (
	"slices"
	"testing"
	"testing/quick"

	"fpb/internal/sim"
)

func TestCellRoundTripMLC(t *testing.T) {
	line := make([]byte, 8) // 32 MLC cells
	for i := 0; i < 32; i++ {
		SetCell(line, i, 2, CellState(i%4))
	}
	for i := 0; i < 32; i++ {
		if got := Cell(line, i, 2); got != CellState(i%4) {
			t.Fatalf("cell %d = %d, want %d", i, got, i%4)
		}
	}
}

func TestCellRoundTripSLC(t *testing.T) {
	line := make([]byte, 4) // 32 SLC cells
	for i := 0; i < 32; i++ {
		SetCell(line, i, 1, CellState(i%2))
	}
	for i := 0; i < 32; i++ {
		if got := Cell(line, i, 1); got != CellState(i%2) {
			t.Fatalf("SLC cell %d = %d, want %d", i, got, i%2)
		}
	}
}

func TestCellRoundTripProperty(t *testing.T) {
	err := quick.Check(func(idx uint8, state uint8) bool {
		line := make([]byte, 64)
		i := int(idxceil(idx, 2))
		s := CellState(state % 4)
		SetCell(line, i, 2, s)
		return Cell(line, i, 2) == s
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// idxceil clamps idx to a valid cell index for a 64-byte line.
func idxceil(idx uint8, bits int) uint8 {
	max := 64 * 8 / bits
	return uint8(int(idx) % max)
}

func TestSetCellDoesNotClobberNeighbors(t *testing.T) {
	line := make([]byte, 4)
	for i := 0; i < 16; i++ {
		SetCell(line, i, 2, State11)
	}
	SetCell(line, 5, 2, State00)
	for i := 0; i < 16; i++ {
		want := State11
		if i == 5 {
			want = State00
		}
		if got := Cell(line, i, 2); got != want {
			t.Fatalf("cell %d = %d, want %d after single update", i, got, want)
		}
	}
}

func TestNumCells(t *testing.T) {
	if NumCells(256, 2) != 1024 {
		t.Error("256B MLC should be 1024 cells")
	}
	if NumCells(64, 1) != 512 {
		t.Error("64B SLC should be 512 cells")
	}
}

func TestDiffCellsAgainstNil(t *testing.T) {
	new := make([]byte, 8)
	SetCell(new, 3, 2, State10)
	SetCell(new, 7, 2, State01)
	cells := DiffCells(nil, nil, new, 2)
	if len(cells) != 2 || cells[0] != 3 || cells[1] != 7 {
		t.Errorf("DiffCells vs nil = %v, want [3 7]", cells)
	}
}

func TestDiffCellsIdenticalIsEmpty(t *testing.T) {
	data := []byte{0xAB, 0xCD, 0xEF, 0x01}
	if cells := DiffCells(nil, data, data, 2); len(cells) != 0 {
		t.Errorf("identical lines diff = %v, want empty", cells)
	}
}

// refDiffCells is the per-cell comparison DiffCells replaced, kept as the
// reference its word-parallel version must match.
func refDiffCells(old, new []byte, bitsPerCell int) []int {
	var dst []int
	for i := 0; i < NumCells(len(new), bitsPerCell); i++ {
		var o CellState
		if old != nil {
			o = Cell(old, i, bitsPerCell)
		}
		if o != Cell(new, i, bitsPerCell) {
			dst = append(dst, i)
		}
	}
	return dst
}

// TestDiffCellsMatchesPerCellReference cross-checks the word-parallel diff
// and count against the per-cell reference on random lines: both cell
// widths, a nil old line, sparse and dense changes, and lengths that leave
// a tail shorter than a word.
func TestDiffCellsMatchesPerCellReference(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 64, 100, 256, 261} {
		for _, bpc := range []int{1, 2} {
			for trial := 0; trial < 50; trial++ {
				old := make([]byte, n)
				new := make([]byte, n)
				for i := range old {
					old[i] = byte(rng.Uint64())
					new[i] = old[i]
					// Vary the density: trial 0 leaves the line
					// unchanged, later trials flip more bytes.
					if rng.Intn(50) < trial {
						new[i] = byte(rng.Uint64())
					}
				}
				var oldArg []byte
				if trial%5 != 0 {
					oldArg = old
				}
				want := refDiffCells(oldArg, new, bpc)
				got := DiffCells([]int{-1}, oldArg, new, bpc)[1:]
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d bpc=%d nil-old=%v: DiffCells = %v, want %v",
						n, bpc, oldArg == nil, got, want)
				}
				if c := CountChangedCells(oldArg, new, bpc); c != len(want) {
					t.Fatalf("n=%d bpc=%d nil-old=%v: CountChangedCells = %d, want %d",
						n, bpc, oldArg == nil, c, len(want))
				}
			}
		}
	}
}

func TestCountChangedCellsMatchesDiff(t *testing.T) {
	err := quick.Check(func(old, new [16]byte) bool {
		o, n := old[:], new[:]
		return CountChangedCells(o, n, 2) == len(DiffCells(nil, o, n, 2))
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestMLCChangesFewerCellsThanSLC(t *testing.T) {
	// Flipping both bits of one MLC cell is one cell change in MLC but two
	// in SLC — the effect behind Fig. 2's MLC < SLC trend.
	old := make([]byte, 4)
	new := make([]byte, 4)
	SetCell(new, 0, 2, State11) // bits 0 and 1 both flip
	mlc := CountChangedCells(old, new, 2)
	slc := CountChangedCells(old, new, 1)
	if mlc != 1 || slc != 2 {
		t.Errorf("mlc=%d slc=%d, want 1 and 2", mlc, slc)
	}
}
