// Package bitio provides MSB-first bit-level reading and writing on top of
// byte slices and io streams.
//
// The serial LZSS token stream (Dipperstein-shaped) is a dense bit stream:
// a one-bit coded/uncoded flag followed by either an 8-bit literal or an
// offset/length pair whose widths depend on the window configuration.
// bitio is the substrate for that stream.
//
// Bits are packed MSB-first: the first bit written lands in bit 7 of the
// first byte. Multi-bit values are written most-significant-bit first, so a
// value written with WriteBits(v, n) is read back with ReadBits(n).
package bitio

import (
	"errors"
	"fmt"
)

// ErrUnexpectedEOF is returned by Reader when the stream ends inside a
// requested bit group.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of bit stream")

// Writer accumulates bits MSB-first into an internal byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  byte // partially filled byte
	nCur uint // number of bits currently in cur (0..7)
}

// NewWriter returns a Writer whose internal buffer has the given capacity
// hint in bytes.
func NewWriter(capHint int) *Writer {
	if capHint < 0 {
		capHint = 0
	}
	return &Writer{buf: make([]byte, 0, capHint)}
}

// WriteBit appends a single bit; any non-zero b writes a 1 bit.
func (w *Writer) WriteBit(b int) {
	w.cur <<= 1
	if b != 0 {
		w.cur |= 1
	}
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits width %d out of range", n))
	}
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(int(v >> uint(i) & 1))
	}
}

// WriteByte appends one full byte. It never fails; the error return exists
// to satisfy io.ByteWriter.
func (w *Writer) WriteByte(b byte) error {
	w.WriteBits(uint64(b), 8)
	return nil
}

// Len reports the number of complete bytes buffered so far, excluding a
// partially filled final byte.
func (w *Writer) Len() int { return len(w.buf) }

// Bytes flushes any partial byte (zero-padding the tail) and returns the
// underlying buffer. The Writer may continue to be used afterwards, but the
// padding bits become part of the stream, so Bytes is normally terminal.
func (w *Writer) Bytes() []byte {
	if w.nCur > 0 {
		w.cur <<= 8 - w.nCur
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// Reset truncates the writer to empty, retaining capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nCur = 0, 0
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int  // next byte index
	cur byte // current byte being drained
	rem uint // bits remaining in cur (0..8)
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// ReadBit returns the next bit (0 or 1).
func (r *Reader) ReadBit() (int, error) {
	if r.rem == 0 {
		if r.pos >= len(r.buf) {
			return 0, ErrUnexpectedEOF
		}
		r.cur = r.buf[r.pos]
		r.pos++
		r.rem = 8
	}
	r.rem--
	return int(r.cur >> r.rem & 1), nil
}

// ReadBits returns the next n bits as an unsigned value, MSB first.
// n must be in [0, 64].
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: ReadBits width %d out of range", n))
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// ReadByte returns the next 8 bits as a byte.
func (r *Reader) ReadByte() (byte, error) {
	v, err := r.ReadBits(8)
	return byte(v), err
}

// Width returns the minimum number of bits needed to represent values in
// [0, n-1]; Width(0) and Width(1) are both 0.
func Width(n int) uint {
	w := uint(0)
	for v := n - 1; v > 0; v >>= 1 {
		w++
	}
	return w
}
