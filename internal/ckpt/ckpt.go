// Package ckpt implements byte-deterministic serialization of quiesced
// simulator state: a little-endian binary format with named sections, a
// format-version magic, and a SHA-256 integrity trailer.
//
// The format deliberately captures *quiesced* systems only (see DESIGN.md
// §12): a checkpoint is taken at a barrier where every core is parked at an
// instruction boundary, the memory controller has drained its queues and
// banks, all power tokens are free, and the event heap is empty. At such a
// barrier the calendar queue, in-flight requests, and token grants are all
// trivially empty, so the image reduces to pure model state — PCM array
// content, cache metadata, wear counters, RNG streams, and generator
// cursors — and restoring it under any compatible measurement configuration
// reproduces the uninterrupted run bit for bit.
//
// Determinism contract: encoding the same component state twice yields the
// same bytes (map-backed state is emitted in sorted key order), so images
// are content-addressable and byte-comparable across machines.
package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// magic identifies a checkpoint image; the trailing byte is the format
// version. Bump it on any layout change: old images must fail loudly, not
// deserialize into garbage state.
var magic = []byte("FPBCKPT\x01")

// Codec is implemented by every component that persists state across a
// checkpoint. SaveState must emit a byte-deterministic encoding of the
// component's model state at a quiesce barrier; RestoreState must read
// exactly what SaveState wrote and leave the component indistinguishable
// from one that reached the barrier by simulation.
type Codec interface {
	SaveState(w *Writer)
	RestoreState(r *Reader) error
}

// Writer builds a checkpoint image in memory. All integers are fixed-width
// little-endian; there is no varint coding, so the encoding of a value never
// depends on its magnitude and images stay byte-comparable.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the image header already emitted.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 1<<20)}
	w.buf = append(w.buf, magic...)
	return w
}

// Len reports the bytes written so far (header included).
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 by its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// U64s appends a length-prefixed slice of uint64.
func (w *Writer) U64s(vs []uint64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// Section emits a named section marker. Markers carry no length — decode
// order is fixed by the format — but they turn a reader/writer mismatch
// into an immediate, named error instead of silently misaligned fields.
func (w *Writer) Section(name string) {
	w.String(name)
}

// Finish appends the SHA-256 integrity trailer and returns the complete
// image. The Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	sum := sha256.Sum256(w.buf)
	w.buf = append(w.buf, sum[:]...)
	return w.buf
}

// Reader decodes a checkpoint image. Errors are sticky: after the first
// failure every subsequent read returns zero values and Err/RestoreState
// report the original cause, so decode paths do not need per-field checks.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader validates the image's magic, version, and SHA-256 trailer and
// returns a Reader positioned after the header.
func NewReader(img []byte) (*Reader, error) {
	if len(img) < len(magic)+sha256.Size {
		return nil, fmt.Errorf("ckpt: image truncated (%d bytes)", len(img))
	}
	if string(img[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("ckpt: bad magic or unsupported format version")
	}
	body := img[:len(img)-sha256.Size]
	want := img[len(img)-sha256.Size:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(want) {
		return nil, fmt.Errorf("ckpt: integrity check failed (image corrupt)")
	}
	return &Reader{buf: body, off: len(magic)}, nil
}

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("unexpected end of image at offset %d (want %d bytes)", r.off, n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a length-prefixed byte slice. The returned slice aliases the
// image buffer; callers that keep it must copy.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("byte slice length %d exceeds remaining image", n)
		return nil
	}
	return r.take(int(n))
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// U64s reads a length-prefixed slice of uint64.
func (r *Reader) U64s() []uint64 {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off)/8 {
		r.fail("uint64 slice length %d exceeds remaining image", n)
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.U64()
	}
	return vs
}

// Section consumes a section marker and verifies its name, anchoring the
// decode against writer/reader drift.
func (r *Reader) Section(name string) {
	got := r.String()
	if r.err == nil && got != name {
		r.fail("section mismatch: want %q, found %q", name, got)
	}
}
