// Package pcm models the Multi-Level Cell Phase Change Memory device: cell
// packing, differential-write cell-change detection, the non-deterministic
// program-and-verify iteration model of the paper (Table 1), the sparse
// line-content store, and line-to-bank addressing.
//
// The model is passive: it computes what a write *is* (which cells change,
// how many iterations each needs, per-chip demand under a given cell
// mapping). The memory controller and power budgeter in internal/mem and
// internal/core decide *when* it happens.
package pcm

import (
	"encoding/binary"
	"math/bits"
)

// CellState is the 2-bit MLC state of a cell: 0b00, 0b01, 0b10 or 0b11.
// '00' is fully RESET (amorphous) and '11' is fully SET (crystalline);
// '01' and '10' are the hard intermediate states.
type CellState uint8

const (
	State00 CellState = 0
	State01 CellState = 1
	State10 CellState = 2
	State11 CellState = 3
)

// Cell returns the i-th cell of a line for the given cell width
// (bitsPerCell 1 or 2). Cells are packed little-endian within each byte:
// MLC cell 0 occupies bits 0..1 of byte 0.
func Cell(line []byte, i, bitsPerCell int) CellState {
	if bitsPerCell == 1 {
		byteIdx, bit := i/8, uint(i%8)
		return CellState((line[byteIdx] >> bit) & 1)
	}
	byteIdx, shift := i/4, uint(i%4)*2
	return CellState((line[byteIdx] >> shift) & 3)
}

// SetCell stores state into the i-th cell of line.
func SetCell(line []byte, i, bitsPerCell int, state CellState) {
	if bitsPerCell == 1 {
		byteIdx, bit := i/8, uint(i%8)
		line[byteIdx] = line[byteIdx]&^(1<<bit) | (byte(state&1) << bit)
		return
	}
	byteIdx, shift := i/4, uint(i%4)*2
	line[byteIdx] = line[byteIdx]&^(3<<shift) | (byte(state&3) << shift)
}

// NumCells returns how many cells a line of lineBytes occupies at the given
// cell width.
func NumCells(lineBytes, bitsPerCell int) int {
	return lineBytes * 8 / bitsPerCell
}

// DiffCells appends to dst the indices of cells whose stored value differs
// between old and new, in ascending order, and returns the extended slice.
// old and new must be the same length; old may be nil, meaning an all-zero
// line (the paper's Fig. 3 convention for untouched memory). Lines are
// compared a 64-bit word at a time; bytes past the last whole word fall
// back to a per-cell loop.
func DiffCells(dst []int, old, new []byte, bitsPerCell int) []int {
	shift := cellShift(bitsPerCell)
	words := len(new) / 8
	for w := 0; w < words; w++ {
		base := w * 64 >> shift
		for x := diffWord(old, new, w*8, bitsPerCell); x != 0; x &= x - 1 {
			dst = append(dst, base+bits.TrailingZeros64(x)>>shift)
		}
	}
	for i, n := words*64>>shift, NumCells(len(new), bitsPerCell); i < n; i++ {
		if cellDiffers(old, new, i, bitsPerCell) {
			dst = append(dst, i)
		}
	}
	return dst
}

// CountChangedCells reports how many cells differ between old and new; it is
// DiffCells without materializing the index list (used by Figure 2's
// cell-change census, where only the count matters).
func CountChangedCells(old, new []byte, bitsPerCell int) int {
	shift := cellShift(bitsPerCell)
	words := len(new) / 8
	count := 0
	for w := 0; w < words; w++ {
		count += bits.OnesCount64(diffWord(old, new, w*8, bitsPerCell))
	}
	for i, n := words*64>>shift, NumCells(len(new), bitsPerCell); i < n; i++ {
		if cellDiffers(old, new, i, bitsPerCell) {
			count++
		}
	}
	return count
}

// cellShift is log2(bitsPerCell), with the same "1, else 2" reading as Cell.
func cellShift(bitsPerCell int) int {
	if bitsPerCell == 1 {
		return 0
	}
	return 1
}

// diffWord XORs the little-endian words at byte offset off of old (nil: all
// zeros) and new and, for 2-bit cells, folds each cell's two bits into its
// low bit, so the result has exactly one bit set per changed cell: bit k
// stands for cell k>>cellShift of the word.
func diffWord(old, new []byte, off, bitsPerCell int) uint64 {
	x := binary.LittleEndian.Uint64(new[off:])
	if old != nil {
		x ^= binary.LittleEndian.Uint64(old[off:])
	}
	if bitsPerCell != 1 {
		x = (x | x>>1) & 0x5555555555555555
	}
	return x
}

// cellDiffers compares cell i of old (nil: all zeros) and new.
func cellDiffers(old, new []byte, i, bitsPerCell int) bool {
	var o CellState
	if old != nil {
		o = Cell(old, i, bitsPerCell)
	}
	return o != Cell(new, i, bitsPerCell)
}
